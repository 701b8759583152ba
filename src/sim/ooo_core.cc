#include "sim/ooo_core.hh"

#include <algorithm>

#include "support/check.hh"

namespace yasim {

// --- InOrderStage ----------------------------------------------------------

uint64_t
OooCore::InOrderStage::schedule(uint64_t earliest)
{
    if (earliest > cycle) {
        cycle = earliest;
        usedThisCycle = 0;
    } else if (usedThisCycle >= width) {
        ++cycle;
        usedThisCycle = 0;
    }
    ++usedThisCycle;
    return cycle;
}

void
OooCore::InOrderStage::reset(uint64_t at)
{
    cycle = at;
    usedThisCycle = 0;
}

// --- HistoryRing -----------------------------------------------------------

void
OooCore::HistoryRing::init(size_t entries)
{
    times.assign(std::max<size_t>(entries, 1), 0);
    count = 0;
}

uint64_t
OooCore::HistoryRing::back() const
{
    if (count < times.size())
        return 0;
    return times[count % times.size()];
}

void
OooCore::HistoryRing::push(uint64_t t)
{
    times[count % times.size()] = t;
    ++count;
}

void
OooCore::HistoryRing::reset(uint64_t fill)
{
    std::fill(times.begin(), times.end(), fill);
    count = 0;
}

// --- OooCore ---------------------------------------------------------------

OooCore::OooCore(const SimConfig &config)
    : cfg(config), mem(config.mem), bp(config.bp)
{
    issueSlots.init(cfg.core.issueWidth);
    memPorts.init(cfg.core.memPorts);
    intAluPool.init(cfg.core.intAlus);
    fpAluPool.init(cfg.core.fpAlus);
    intMulPool.init(cfg.core.intMultDivUnits);
    fpMulPool.init(cfg.core.fpMultDivUnits);
    intDivFree.assign(cfg.core.intMultDivUnits, 0);
    fpDivFree.assign(cfg.core.fpMultDivUnits, 0);

    dispatchStage.width = cfg.core.decodeWidth;
    commitStage.width = cfg.core.commitWidth;

    robCommit.init(cfg.core.robEntries);
    lsqCommit.init(cfg.core.lsqEntries);
    iqIssue.init(cfg.core.iqEntries);
    fqDispatch.init(cfg.core.fetchQueueEntries);

    intRegReady.assign(numIntRegs, 0);
    fpRegReady.assign(numFpRegs, 0);
    storeFwd.assign(fwdEntries, FwdEntry());

    fetchSlotsLeft = cfg.core.fetchWidth;
    tcEnabled = cfg.core.trivialComputation;
}

uint64_t
OooCore::fuLatency(FuClass fu) const
{
    switch (fu) {
      case FuClass::IntAlu:
      case FuClass::Branch:
        return cfg.core.intAluLatency;
      case FuClass::IntMult:
        return cfg.core.intMulLatency;
      case FuClass::IntDiv:
        return cfg.core.intDivLatency;
      case FuClass::FpAlu:
        return cfg.core.fpAluLatency;
      case FuClass::FpMult:
        return cfg.core.fpMulLatency;
      case FuClass::FpDiv:
        return cfg.core.fpDivLatency;
      case FuClass::MemRead:
      case FuClass::MemWrite:
        return 1; // address generation; cache latency added separately
      case FuClass::None:
        return 1;
    }
    return 1;
}

uint64_t
OooCore::scheduleIssue(uint64_t earliest, uint64_t horizon, FuClass fu,
                       bool is_mem, bool bypass_fu)
{
    // Unpipelined dividers are tracked per unit.
    const bool div = !bypass_fu && !cfg.core.divPipelined &&
                     (fu == FuClass::IntDiv || fu == FuClass::FpDiv);
    std::vector<uint64_t> *div_units =
        fu == FuClass::IntDiv ? &intDivFree : &fpDivFree;

    SlotPool *pool = nullptr;
    switch (fu) {
      case FuClass::IntAlu:
      case FuClass::Branch:
      case FuClass::None:
        pool = &intAluPool;
        break;
      case FuClass::IntMult:
        pool = &intMulPool;
        break;
      case FuClass::FpAlu:
        pool = &fpAluPool;
        break;
      case FuClass::FpMult:
        pool = &fpMulPool;
        break;
      case FuClass::IntDiv:
        pool = div ? nullptr : &intMulPool; // pipelined div shares mult pool
        break;
      case FuClass::FpDiv:
        pool = div ? nullptr : &fpMulPool;
        break;
      case FuClass::MemRead:
      case FuClass::MemWrite:
        pool = nullptr; // memory port is the structural resource
        break;
    }
    if (bypass_fu)
        pool = nullptr;

    uint64_t c = earliest;
    for (;;) {
        c = issueSlots.findFree(c, horizon);
        if (pool) {
            uint64_t c2 = pool->findFree(c, horizon);
            if (c2 != c) {
                c = c2;
                continue;
            }
        }
        if (div) {
            uint64_t best = ~0ULL;
            for (uint64_t f : *div_units)
                best = std::min(best, f);
            if (best > c) {
                c = best;
                continue;
            }
        }
        if (is_mem) {
            uint64_t c3 = memPorts.findFree(c, horizon);
            if (c3 != c) {
                c = c3;
                continue;
            }
        }
        break;
    }

    issueSlots.consume(c, horizon);
    if (pool)
        pool->consume(c, horizon);
    if (div) {
        // Occupy the earliest-free divider for the full operation.
        size_t best_u = 0;
        for (size_t u = 1; u < div_units->size(); ++u)
            if ((*div_units)[u] < (*div_units)[best_u])
                best_u = u;
        (*div_units)[best_u] = c + fuLatency(fu);
    }
    if (is_mem)
        memPorts.consume(c, horizon);
    return c;
}

uint64_t
OooCore::run(TraceReplayer &src, uint64_t max_insts, BbProfiler *profiler,
             const CancelToken &cancel)
{
    const uint32_t l1i_block = cfg.mem.l1i.blockBytes;
    const uint64_t frontend = cfg.core.frontendDepth;

    // Pull spans through the replayer's stepBatch kernel into a buffer
    // small enough to live on the stack. The batch divides the cancel
    // quantum, so every poll lands exactly on a quantum boundary.
    constexpr uint64_t kFetchBatch = 256;
    static_assert(kCancelCheckInsts % kFetchBatch == 0);
    ExecRecord recs[kFetchBatch];

    uint64_t done = 0;
    uint64_t next_poll = kCancelCheckInsts;
    while (done < max_insts) {
        // Batch-boundary cancellation poll, once per quantum so the
        // loop stays branch-predictable (free for an invalid token).
        if (done >= next_poll) {
            if (cancel.cancelled())
                break;
            next_poll = done + kCancelCheckInsts;
        }
        const uint64_t want = std::min(max_insts - done, kFetchBatch);
        const uint64_t n = src.stepBatch(recs, want);
        if (n == 0)
            break;
        for (uint64_t i = 0; i < n; ++i) {
            const ExecRecord &rec = recs[i];
            if (profiler)
                profiler->record(rec.pc);
            simulateOne(*rec.inst, Program::pcAddress(rec.pc), rec.nextPc,
                        rec.memAddr, rec.taken, rec.trivial, l1i_block,
                        frontend);
        }
        done += n;
    }
    return done;
}

SimStats
OooCore::runMeasured(TraceReplayer &src, uint64_t max_insts,
                     BbProfiler *profiler, uint64_t *insts_done,
                     const CancelToken &cancel)
{
    SimStats before = snapshot();
    uint64_t done = run(src, max_insts, profiler, cancel);
    if (insts_done)
        *insts_done = done;
    return snapshot() - before;
}

void
OooCore::simulateOne(const Instruction &inst, uint64_t pc_addr,
                     uint64_t next_pc, uint64_t mem_addr, bool taken,
                     bool trivial_hint, uint32_t l1i_block,
                     uint64_t frontend)
{
    // ---- Fetch ----
    if (redirectCycle > fetchCycle) {
        fetchCycle = redirectCycle;
        fetchSlotsLeft = cfg.core.fetchWidth;
        lastFetchBlock = ~0ULL;
    }
    if (fetchSlotsLeft == 0) {
        ++fetchCycle;
        fetchSlotsLeft = cfg.core.fetchWidth;
    }
    uint64_t block = pc_addr / l1i_block;
    if (block != lastFetchBlock) {
        uint32_t lat = mem.instAccess(pc_addr);
        if (lat > cfg.mem.l1iLatency)
            fetchCycle += lat - cfg.mem.l1iLatency;
        lastFetchBlock = block;
    }
    // Fetch-queue backpressure: a slot frees when an older
    // instruction dispatches.
    uint64_t fq_free = fqDispatch.back();
    if (fq_free > fetchCycle) {
        fetchCycle = fq_free;
        fetchSlotsLeft = cfg.core.fetchWidth;
    }
    uint64_t fetch_time = fetchCycle;
    --fetchSlotsLeft;

    bool mispredicted = false;
    if (inst.isControl()) {
        mispredicted =
            bp.update(pc_addr, inst.isCondBranch(), taken,
                      Program::pcAddress(next_pc));
        if (taken)
            fetchSlotsLeft = 0; // taken branch ends the fetch group
    }

    // ---- Dispatch ----
    uint64_t disp_earliest = fetch_time + frontend;
    uint64_t rob_free = robCommit.back();
    if (rob_free + 1 > disp_earliest)
        disp_earliest = rob_free + 1;
    uint64_t iq_free = iqIssue.back();
    if (iq_free + 1 > disp_earliest)
        disp_earliest = iq_free + 1;
    const bool is_mem = inst.isLoad() || inst.isStore();
    if (is_mem) {
        uint64_t lsq_free = lsqCommit.back();
        if (lsq_free + 1 > disp_earliest)
            disp_earliest = lsq_free + 1;
    }
    uint64_t dispatch_time = dispatchStage.schedule(disp_earliest);
    fqDispatch.push(dispatch_time);

    // ---- Ready (register and memory dependences) ----
    uint64_t ready = dispatch_time + 1;
    const bool fp = inst.isFp();
    auto src_ready = [&](int reg, bool fp_file) {
        if (reg == noReg)
            return;
        uint64_t t = fp_file ? fpRegReady[reg] : intRegReady[reg];
        if (t > ready)
            ready = t;
    };
    switch (inst.op) {
      case Opcode::FCvt:
        src_ready(inst.rs1, false);
        break;
      case Opcode::Ld:
      case Opcode::FLd:
        src_ready(inst.rs1, false); // address base
        break;
      case Opcode::St:
        src_ready(inst.rs1, false);
        src_ready(inst.rs2, false);
        break;
      case Opcode::FSt:
        src_ready(inst.rs1, false);
        src_ready(inst.rs2, true);
        break;
      default:
        src_ready(inst.rs1, fp);
        src_ready(inst.rs2, fp);
        break;
    }
    if (inst.isLoad()) {
        // Store-to-load forwarding: an earlier in-flight store to the
        // same word defines the earliest load completion.
        const FwdEntry &e = storeFwd[(mem_addr >> 3) % fwdEntries];
        if (e.addr == mem_addr && e.doneCycle > ready)
            ready = e.doneCycle;
    }

    // ---- Issue and execute ----
    FuClass fu = inst.fuClass();
    bool trivial = tcEnabled && trivial_hint;
    if (trivial)
        ++trivialOps; // eliminated: no functional unit needed
    uint64_t issue_time =
        scheduleIssue(ready, dispatch_time, fu, is_mem, trivial);
    iqIssue.push(issue_time);

    uint64_t exec_done;
    uint32_t load_extra_lat = 0;
    if (inst.isLoad()) {
        uint32_t dlat = mem.dataAccess(mem_addr, false);
        if (dlat > cfg.mem.l1dLatency)
            load_extra_lat = dlat - cfg.mem.l1dLatency;
        exec_done = issue_time + 1 + dlat;
    } else if (inst.isStore()) {
        mem.dataAccess(mem_addr, true);
        storeFwd[(mem_addr >> 3) % fwdEntries] =
            FwdEntry{mem_addr, issue_time + 1};
        exec_done = issue_time + 1; // retires via the store buffer
    } else {
        // Eliminated trivial ops complete in a single cycle.
        exec_done = issue_time + (trivial ? 1 : fuLatency(fu));
    }

    if (inst.rd != noReg) {
        if (inst.writesFpReg())
            fpRegReady[inst.rd] = exec_done;
        else if (inst.rd != 0)
            intRegReady[inst.rd] = exec_done;
    }

    if (mispredicted) {
        uint64_t redirect =
            exec_done + cfg.core.mispredictPenalty;
        if (redirect > redirectCycle)
            redirectCycle = redirect;
    }

    // ---- Commit ----
    uint64_t commit_time = commitStage.schedule(exec_done + 1);
    if (load_extra_lat > 0 && commit_time > lastCommitCycle) {
        // Attribute the commit-front advance to this load's extra
        // memory latency, bounded by that latency (overlapped
        // misses split the credit naturally).
        uint64_t advance = commit_time - lastCommitCycle;
        memStallCycles +=
            std::min<uint64_t>(advance, load_extra_lat);
    }
    // Commit can never precede dispatch or run backwards; a
    // violation means a pipeline resource clock regressed.
    YASIM_DCHECK_GE(commit_time, dispatch_time);
    YASIM_DCHECK_GE(commit_time, lastCommitCycle);
    robCommit.push(commit_time);
    if (is_mem)
        lsqCommit.push(commit_time);
    lastCommitCycle = commit_time;

    ++retired;
}

void
OooCore::resetPipeline()
{
    uint64_t now = lastCommitCycle;
    fetchCycle = now;
    fetchSlotsLeft = cfg.core.fetchWidth;
    lastFetchBlock = ~0ULL;
    redirectCycle = now;
    dispatchStage.reset(now);
    commitStage.reset(now);
    issueSlots.reset();
    memPorts.reset();
    intAluPool.reset();
    fpAluPool.reset();
    intMulPool.reset();
    fpMulPool.reset();
    std::fill(intDivFree.begin(), intDivFree.end(), now);
    std::fill(fpDivFree.begin(), fpDivFree.end(), now);
    robCommit.reset(now);
    lsqCommit.reset(now);
    iqIssue.reset(now);
    fqDispatch.reset(now);
    std::fill(intRegReady.begin(), intRegReady.end(), now);
    std::fill(fpRegReady.begin(), fpRegReady.end(), now);
    storeFwd.assign(fwdEntries, FwdEntry());
}

void
OooCore::restart(const MemoryHierarchy &warm_mem,
                 const CombinedPredictor &warm_bp)
{
    mem = warm_mem;
    bp = warm_bp;
    // A pipeline reset at cycle 0 leaves every clock, ring and pool as
    // the constructor does; the pools answer exactly at any window.
    lastCommitCycle = 0;
    resetPipeline();
    retired = 0;
    trivialOps = 0;
    memStallCycles = 0;
    tcEnabled = cfg.core.trivialComputation;
}

SimStats
OooCore::snapshot() const
{
    SimStats s;
    s.instructions = retired;
    s.cycles = lastCommitCycle;
    s.condBranches = bp.stats().condBranches;
    s.condMispredicts = bp.stats().condMispredicts;
    s.l1iAccesses = mem.l1iStats().accesses;
    s.l1iMisses = mem.l1iStats().misses;
    s.l1dAccesses = mem.l1dStats().accesses;
    s.l1dMisses = mem.l1dStats().misses;
    s.l2Accesses = mem.l2Stats().accesses;
    s.l2Misses = mem.l2Stats().misses;
    s.trivialOps = trivialOps;
    s.prefetchesIssued = mem.prefetchStats().issued;
    s.memStallCycles = memStallCycles;
    return s;
}

} // namespace yasim
