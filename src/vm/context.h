/**
 * @file
 * Per-endpoint VM state: loaded klasses, statics, warmup, hooks.
 *
 * One VmContext is the analogue of one JVM instance: the server runs
 * one, and every FaaS function instance runs one. Interpreters (one
 * per in-flight request) share their endpoint's context.
 *
 * The runtime steers the interpreter through a few policies and
 * flat marks, not through a per-native policy: the offload policy is
 * asked only at calls to methods marked as offload candidates, and a
 * native's disposition follows from its category and the endpoint's
 * check_remote_refs (see Interpreter).
 */

#ifndef BEEHIVE_VM_CONTEXT_H
#define BEEHIVE_VM_CONTEXT_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "vm/heap.h"
#include "vm/natives.h"
#include "vm/program.h"
#include "vm/ref_table.h"
#include "vm/value.h"

namespace beehive::vm {

class Profiler;
class RaceOracle;

/** Tuning knobs of one VM instance. */
struct VmConfig
{
    /** Endpoint number used for lock-owner words (0 = server). */
    uint16_t endpoint = 0;

    /**
     * FaaS-side remote-reference load checks (paper Section 4.1).
     * Such an endpoint also runs a HiddenState native only on a
     * local, packed receiver (Section 3.2); any other one suspends
     * NativeFallback.
     */
    bool check_remote_refs = false;

    /** Suspend after this much accumulated compute (CPU ns). */
    double quantum_ns = 100000.0; // 100 us

    /** Base cost of one bytecode instruction at full speed (ns). */
    double instr_cost_ns = 2.0;

    /**
     * JVM warmup model: methods run @ref cold_multiplier times
     * slower until they have been invoked jit_threshold times on
     * this endpoint ("the first-time execution is usually slow",
     * paper Section 3.4).
     */
    uint32_t jit_threshold = 5;
    double cold_multiplier = 8.0;

    /** Klass used for byte objects created by NewBytes. */
    KlassId bytes_klass = kNoKlass;
    /** Klass used for plain arrays created by helpers. */
    KlassId array_klass = kNoKlass;
};

/**
 * The mutable state of one VM instance.
 */
class VmContext
{
  public:
    /**
     * Policy asked on MonitorEnter: does acquiring @p obj require a
     * cross-endpoint synchronization (previous owner elsewhere)?
     * Installed by the BeeHive runtime; null means never.
     */
    using MonitorPolicy = std::function<bool(Ref obj)>;

    /** Hook fired when a monitor is released (release consistency). */
    using MonitorReleaseHook = std::function<void(Ref obj)>;

    VmContext(const Program &program, NativeRegistry &natives,
              Heap &heap, VmConfig config);

    const Program &program() const { return program_; }
    NativeRegistry &natives() { return natives_; }
    Heap &heap() { return heap_; }
    const VmConfig &config() const { return config_; }
    VmConfig &config() { return config_; }

    /** @name Klass loading */
    /// @{
    bool
    isLoaded(KlassId id) const
    {
        bh_assert(id < loaded_.size(), "bad klass id");
        return loaded_[id];
    }
    /** Install a klass (fault resolution or initial closure). */
    void loadKlass(KlassId id);
    /** Load every klass in the program (server startup). */
    void loadAll();
    std::size_t loadedCount() const { return loaded_count_; }
    /// @}

    /** @name Statics */
    /// @{
    Value
    getStatic(KlassId klass, uint32_t slot) const
    {
        return staticSlot(klass, slot);
    }
    void
    setStatic(KlassId klass, uint32_t slot, Value v)
    {
        staticSlot(klass, slot) = v;
    }
    /** Iterate all static slots in ascending klass order (GC roots,
     * sync). */
    template <typename Fn>
    void
    forEachStatic(Fn &&fn)
    {
        for (std::vector<Value> &slots : statics_) {
            for (Value &v : slots)
                fn(v);
        }
    }
    /// @}

    /** @name Remote object mapping (FaaS side) */
    /// @{
    /** Record that server object @p remote now lives at @p local. */
    void mapRemote(Ref remote, Ref local);
    /** Local address for a fetched remote object (kNullRef if none). */
    Ref lookupRemote(Ref remote) const
    {
        return remote_map_.find(stripRemote(remote));
    }
    /** Make room for @p more mappings beyond the current ones. */
    void reserveRemote(std::size_t more)
    {
        remote_map_.reserve(remote_map_.size() + more);
    }
    /// @}

    /** @name Warmup model */
    /// @{
    /** Count an invocation; returns the cost multiplier to apply. */
    double
    methodEntered(MethodId id)
    {
        if (id >= invocation_counts_.size()) [[unlikely]]
            invocation_counts_.resize(id + 1, 0);
        uint64_t &count = invocation_counts_[id];
        const double mult = count < config_.jit_threshold
                                ? config_.cold_multiplier
                                : 1.0;
        ++count;
        return mult;
    }
    /** Current multiplier without counting. */
    double costMultiplier(MethodId id) const;
    uint64_t invocations(MethodId id) const;
    /// @}

    /**
     * Policy asked at a call to an offload candidate: should this
     * call be redirected to a FaaS function (the Semi-FaaS split)?
     * The offload manager installs it on the server and marks each
     * root it enables; it must return true only when an offload will
     * actually be dispatched. A call to an unmarked method never
     * asks it.
     */
    using OffloadPolicy = std::function<bool(MethodId)>;

    /** @name Policies and hooks */
    /// @{
    void setOffloadPolicy(OffloadPolicy p)
    {
        offload_policy_ = std::move(p);
    }
    /** Mark @p id as a method the offload policy decides about. */
    void markOffloadCandidate(MethodId id);
    bool
    isOffloadCandidate(MethodId id) const
    {
        return id < offload_marks_.size() && offload_marks_[id];
    }
    bool
    shouldOffload(MethodId id) const
    {
        return isOffloadCandidate(id) && offload_policy_ &&
               offload_policy_(id);
    }
    void setMonitorPolicy(MonitorPolicy p) { monitor_policy_ = std::move(p); }
    void setMonitorReleaseHook(MonitorReleaseHook h)
    {
        monitor_release_ = std::move(h);
    }
    void setProfiler(Profiler *p) { profiler_ = p; }
    Profiler *profiler() { return profiler_; }
    /** Dynamic race oracle (tests install one); null = not tracking. */
    void setRaceOracle(RaceOracle *o) { race_oracle_ = o; }
    RaceOracle *raceOracle() { return race_oracle_; }

    bool needsRemoteAcquire(Ref obj) const
    {
        return monitor_policy_ && monitor_policy_(obj);
    }
    void monitorReleased(Ref obj)
    {
        if (monitor_release_)
            monitor_release_(obj);
    }
    /// @}

    /**
     * One-shot override: run the next native locally, whatever its
     * category and receiver. The function endpoint sets it after
     * serving a NativeFallback; the next native call consumes it.
     */
    void forceNextNativeLocal() { force_local_native_ = true; }
    bool forceLocalNativePending() const { return force_local_native_; }
    bool consumeForceLocalNative()
    {
        bool v = force_local_native_;
        force_local_native_ = false;
        return v;
    }

    /** Per-context native invocation census (Table 2). */
    void countNative(NativeCategory cat) { native_counts_[
        static_cast<std::size_t>(cat)]++; }
    uint64_t nativeCount(NativeCategory cat) const
    {
        return native_counts_[static_cast<std::size_t>(cat)];
    }
    void resetNativeCounts() { native_counts_.fill(0); }

  private:
    Value &
    staticSlot(KlassId klass, uint32_t slot)
    {
        bh_assert(klass < statics_.size() && !statics_[klass].empty(),
                  "statics of unloaded klass");
        bh_assert(slot < statics_[klass].size(), "bad static slot");
        return statics_[klass][slot];
    }
    const Value &
    staticSlot(KlassId klass, uint32_t slot) const
    {
        return const_cast<VmContext *>(this)->staticSlot(klass, slot);
    }

    const Program &program_;
    NativeRegistry &natives_;
    Heap &heap_;
    VmConfig config_;

    std::vector<bool> loaded_;
    std::size_t loaded_count_ = 0;
    /** Static slots by klass id; empty until a klass with statics
     * loads. */
    std::vector<std::vector<Value>> statics_;
    /** Stripped server address -> local address. */
    RefTable remote_map_;
    /** Invocations by method id; grows on demand. */
    std::vector<uint64_t> invocation_counts_;

    OffloadPolicy offload_policy_;
    /** Offload candidates by method id; grows on demand. */
    std::vector<uint8_t> offload_marks_;
    MonitorPolicy monitor_policy_;
    MonitorReleaseHook monitor_release_;
    Profiler *profiler_ = nullptr;
    RaceOracle *race_oracle_ = nullptr;
    bool force_local_native_ = false;
    std::array<uint64_t, 4> native_counts_{};
};

} // namespace beehive::vm

#endif // BEEHIVE_VM_CONTEXT_H
