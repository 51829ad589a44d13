//===- perfbench/cpp/Observers.h - Bench-side observers ---------*- C++ -*-===//
//
// Part of TaskCheck (CGO'16 atomicity-checker reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two ExecutionObservers the benchmark attaches to runtimes and replays it
/// builds itself, so the program needs no extra hooks:
///
///  - CountingObserver does no analysis and only counts callbacks. A pass
///    with it, minus an uninstrumented pass, is the hook-dispatch cost; its
///    count is the event base of every per-event ratio.
///  - TimingObserver forwards every callback to a registry-built engine and
///    times one access in 64 and one task or lock callback in 8 with
///    steady_clock. One timed call in 16 is also recorded as a span
///    (standing for 1024 accesses or 128 other calls) when the span
///    recorder is on.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_OBSERVERS_H
#define PERFBENCH_OBSERVERS_H

#include <atomic>
#include <vector>

#include "Bench.h"
#include "runtime/ExecutionObserver.h"

namespace perfbench {

class CountingObserver final : public avc::ExecutionObserver {
public:
  void onProgramStart(avc::TaskId) override { bump(); }
  void onProgramEnd() override { bump(); }
  void onTaskSpawn(avc::TaskId, const void *, avc::TaskId) override {
    bump();
  }
  void onTaskExecuteBegin(avc::TaskId) override { bump(); }
  void onTaskEnd(avc::TaskId) override { bump(); }
  void onSync(avc::TaskId) override { bump(); }
  void onGroupWait(avc::TaskId, const void *) override { bump(); }
  void onLockAcquire(avc::TaskId, avc::LockId) override { bump(); }
  void onLockRelease(avc::TaskId, avc::LockId) override { bump(); }
  void onRead(avc::TaskId, avc::MemAddr) override { bump(); }
  void onWrite(avc::TaskId, avc::MemAddr) override { bump(); }
  void onSiteRegister(avc::MemAddr, uint64_t, uint32_t) override { bump(); }

  /// Callbacks received; call after the run.
  uint64_t events() const;

private:
  struct Slot {
    uint64_t Count = 0;
  };
  void bump() { ++Counts.local().Count; }

  PerThread<Slot> Counts;
};

/// Callback classes the decorator samples separately.
enum class CallbackClass { Access, Task, Lock, NumClasses };

class TimingObserver final : public avc::ExecutionObserver {
public:
  /// Forwards to \p Inner (not owned).
  explicit TimingObserver(avc::ExecutionObserver &Inner) : Inner(Inner) {}

  /// Parent span of the callback spans recorded from now on.
  void setParentSpan(uint32_t Id) {
    ParentSpan.store(Id, std::memory_order_relaxed);
  }

  void onProgramStart(avc::TaskId Root) override;
  void onProgramEnd() override;
  void onTaskSpawn(avc::TaskId Parent, const void *Group,
                   avc::TaskId Child) override;
  void onTaskExecuteBegin(avc::TaskId Task) override;
  void onTaskEnd(avc::TaskId Task) override;
  void onSync(avc::TaskId Task) override;
  void onGroupWait(avc::TaskId Task, const void *Group) override;
  void onLockAcquire(avc::TaskId Task, avc::LockId Lock) override;
  void onLockRelease(avc::TaskId Task, avc::LockId Lock) override;
  void onRead(avc::TaskId Task, avc::MemAddr Addr) override;
  void onWrite(avc::TaskId Task, avc::MemAddr Addr) override;
  void onSiteRegister(avc::MemAddr Base, uint64_t Size,
                      uint32_t Stride) override;

  /// Timed samples of one class in nanoseconds (call after the run).
  std::vector<double> samples(CallbackClass Class) const;
  /// Estimated total callback time in seconds: sampled time scaled by the
  /// sampling factor of each class.
  double estimatedSeconds() const;

private:
  struct Slot {
    uint64_t Ticks[size_t(CallbackClass::NumClasses)] = {};
    std::vector<float> Samples[size_t(CallbackClass::NumClasses)];
  };

  template <typename FnT>
  void forward(CallbackClass Class, const char *SpanName, FnT Call);

  avc::ExecutionObserver &Inner;
  std::atomic<uint32_t> ParentSpan{0};
  PerThread<Slot> Slots;
};

} // namespace perfbench

#endif // PERFBENCH_OBSERVERS_H
