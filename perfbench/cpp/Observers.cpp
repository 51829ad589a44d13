//===- perfbench/cpp/Observers.cpp - Bench-side execution observers -------===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//

#include "Observers.h"

#include "Spans.h"

using namespace avc;
using namespace perfbench;

uint64_t CountingObserver::events() const {
  uint64_t Total = 0;
  for (const auto &S : Counts.slots())
    Total += S->Count;
  return Total;
}

namespace {
/// One access in AccessEvery and one task or lock callback in OtherEvery
/// is timed; README.md's span factors (1 in 1024, 1 in 128) follow from
/// these and the one-in-16 span sampling below.
constexpr unsigned AccessEvery = 64;
constexpr unsigned OtherEvery = 8;
constexpr unsigned SpanEvery = 16;

unsigned sampleEvery(CallbackClass Class) {
  return Class == CallbackClass::Access ? AccessEvery : OtherEvery;
}
} // namespace

template <typename FnT>
void TimingObserver::forward(CallbackClass Class, const char *SpanName,
                             FnT Call) {
  Slot &S = Slots.local();
  unsigned Every = sampleEvery(Class);
  if (++S.Ticks[size_t(Class)] % Every != 0) {
    Call();
    return;
  }
  // One sample in 16 is also recorded as a span, which keeps the trace
  // file small while the timing distribution keeps every sample. The span
  // reuses the sample's timestamps, so recording it costs the timed call
  // nothing.
  std::vector<float> &Samples = S.Samples[size_t(Class)];
  uint64_t Start = nowNanos();
  Call();
  uint64_t End = nowNanos();
  if (Samples.size() % SpanEvery == 0)
    SpanRecorder::get().record(SpanName,
                               ParentSpan.load(std::memory_order_relaxed),
                               Start, End, Every * SpanEvery);
  Samples.push_back(float(End - Start));
}

void TimingObserver::onProgramStart(TaskId Root) { Inner.onProgramStart(Root); }
void TimingObserver::onProgramEnd() { Inner.onProgramEnd(); }
void TimingObserver::onTaskExecuteBegin(TaskId Task) {
  Inner.onTaskExecuteBegin(Task);
}
void TimingObserver::onSiteRegister(MemAddr Base, uint64_t Size,
                                    uint32_t Stride) {
  Inner.onSiteRegister(Base, Size, Stride);
}

void TimingObserver::onTaskSpawn(TaskId Parent, const void *Group,
                                 TaskId Child) {
  forward(CallbackClass::Task, "checker.task",
          [&] { Inner.onTaskSpawn(Parent, Group, Child); });
}
void TimingObserver::onTaskEnd(TaskId Task) {
  forward(CallbackClass::Task, "checker.task",
          [&] { Inner.onTaskEnd(Task); });
}
void TimingObserver::onSync(TaskId Task) {
  forward(CallbackClass::Task, "checker.task", [&] { Inner.onSync(Task); });
}
void TimingObserver::onGroupWait(TaskId Task, const void *Group) {
  forward(CallbackClass::Task, "checker.task",
          [&] { Inner.onGroupWait(Task, Group); });
}
void TimingObserver::onLockAcquire(TaskId Task, LockId Lock) {
  forward(CallbackClass::Lock, "checker.lock",
          [&] { Inner.onLockAcquire(Task, Lock); });
}
void TimingObserver::onLockRelease(TaskId Task, LockId Lock) {
  forward(CallbackClass::Lock, "checker.lock",
          [&] { Inner.onLockRelease(Task, Lock); });
}
void TimingObserver::onRead(TaskId Task, MemAddr Addr) {
  forward(CallbackClass::Access, "checker.access",
          [&] { Inner.onRead(Task, Addr); });
}
void TimingObserver::onWrite(TaskId Task, MemAddr Addr) {
  forward(CallbackClass::Access, "checker.access",
          [&] { Inner.onWrite(Task, Addr); });
}

std::vector<double> TimingObserver::samples(CallbackClass Class) const {
  std::vector<double> Out;
  for (const auto &S : Slots.slots())
    Out.insert(Out.end(), S->Samples[size_t(Class)].begin(),
               S->Samples[size_t(Class)].end());
  return Out;
}

double TimingObserver::estimatedSeconds() const {
  double Ns = 0;
  for (size_t C = 0; C < size_t(CallbackClass::NumClasses); ++C) {
    unsigned Every = sampleEvery(CallbackClass(C));
    double Sum = 0;
    for (double V : samples(CallbackClass(C)))
      Sum += V;
    Ns += Sum * Every;
  }
  return Ns * 1e-9;
}
