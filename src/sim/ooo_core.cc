#include "sim/ooo_core.hh"

#include <algorithm>
#include <bit>

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
    head = 0;
}

void
OooCore::HistoryRing::reset()
{
    std::fill(times.begin(), times.end(), 0);
    head = 0;
}

// --- IssueTable ------------------------------------------------------------

void
IssueTable::init(const Widths &widths)
{
    for (size_t r = 0; r < kNumResources; ++r) {
        YASIM_CHECK(widths[r] <= kMaxWidth,
                    "issue resource %zu is %u wide, above %u", r,
                    widths[r], kMaxWidth);
        width[r] = static_cast<uint16_t>(std::max<uint32_t>(widths[r], 1));
    }
    // A record takes at most one claim per issue slot, each adding at
    // most two to used[kNone], so it stays below this.
    width[kNone] = 2 * kMaxWidth + 1;
    gen = 1;
    records.assign(kInitialWindow, Record());
    mask = kInitialWindow - 1;
}

void
IssueTable::grow(uint64_t horizon)
{
    // Records sharing an index under the old mask differ in the new
    // bit, so re-homing never collides.
    std::vector<Record> old = std::move(records);
    records.assign(old.size() * 2, Record());
    mask = records.size() - 1;
    for (const Record &o : old)
        if (o.gen == gen && o.cycle > horizon)
            records[o.cycle & mask] = o;
}

void
IssueTable::reset()
{
    if (++gen == 0) {
        // One wrap every 65,535 resets: invalidate the hard way so a
        // stale generation-1 record can never be mistaken for live.
        std::fill(records.begin(), records.end(), Record());
        gen = 1;
    }
}

// --- OooCore ---------------------------------------------------------------

OooCore::OooCore(const SimConfig &config)
    : cfg(config), mem(config.mem), bp(config.bp)
{
    IssueTable::Widths widths{};
    widths[IssueTable::kIntAluPool] = cfg.core.intAlus;
    widths[IssueTable::kIntMulPool] = cfg.core.intMultDivUnits;
    widths[IssueTable::kFpAluPool] = cfg.core.fpAlus;
    widths[IssueTable::kFpMulPool] = cfg.core.fpMultDivUnits;
    widths[IssueTable::kMemPort] = cfg.core.memPorts;
    widths[IssueTable::kIssueSlot] = cfg.core.issueWidth;
    issueTable.init(widths);
    divFree[0].assign(cfg.core.intMultDivUnits, 0);
    divFree[1].assign(cfg.core.fpMultDivUnits, 0);

    // Pipelined dividers share the multiplier pools; unpipelined ones
    // are tracked per unit. Memory ops have no FU pool: the memory
    // port is their structural resource, and address generation
    // takes one cycle before the cache latency.
    const CoreConfig &c = cfg.core;
    auto route = [&](FuClass fu, IssueTable::Resource pool,
                     uint32_t latency) {
        fuRoutes[size_t(fu)] = FuRoute{pool, kNoDivider, latency};
    };
    route(FuClass::IntAlu, IssueTable::kIntAluPool, c.intAluLatency);
    route(FuClass::Branch, IssueTable::kIntAluPool, c.intAluLatency);
    route(FuClass::None, IssueTable::kIntAluPool, 1);
    route(FuClass::IntMult, IssueTable::kIntMulPool, c.intMulLatency);
    route(FuClass::FpAlu, IssueTable::kFpAluPool, c.fpAluLatency);
    route(FuClass::FpMult, IssueTable::kFpMulPool, c.fpMulLatency);
    route(FuClass::IntDiv, IssueTable::kIntMulPool, c.intDivLatency);
    route(FuClass::FpDiv, IssueTable::kFpMulPool, c.fpDivLatency);
    route(FuClass::MemRead, IssueTable::kNone, 1);
    route(FuClass::MemWrite, IssueTable::kNone, 1);
    if (!c.divPipelined) {
        fuRoutes[size_t(FuClass::IntDiv)].pool = IssueTable::kNone;
        fuRoutes[size_t(FuClass::IntDiv)].divider = 0;
        fuRoutes[size_t(FuClass::FpDiv)].pool = IssueTable::kNone;
        fuRoutes[size_t(FuClass::FpDiv)].divider = 1;
    }

    dispatchStage.width = cfg.core.decodeWidth;
    commitStage.width = cfg.core.commitWidth;

    robCommit.init(cfg.core.robEntries);
    lsqCommit.init(cfg.core.lsqEntries);
    iqIssue.init(cfg.core.iqEntries);
    fqDispatch.init(cfg.core.fetchQueueEntries);

    storeFwd.assign(fwdEntries, FwdEntry());

    fetchSlotsLeft = cfg.core.fetchWidth;
    tcEnabled = cfg.core.trivialComputation;
}

TimingOp
OooCore::decode(const Instruction &inst)
{
    auto slot = [](int reg, bool fp_file) -> uint8_t {
        if (reg == noReg)
            return TimingOp::kNoReg;
        YASIM_CHECK(reg >= 0 && reg < (fp_file ? numFpRegs : numIntRegs),
                    "register %d out of range", reg);
        return static_cast<uint8_t>(fp_file ? TimingOp::kFpBase + reg
                                            : reg);
    };
    TimingOp op;
    op.fu = inst.fuClass();
    op.load = inst.isLoad();
    op.store = inst.isStore();
    op.control = inst.isControl();
    op.condBranch = inst.isCondBranch();
    switch (inst.op) {
      case Opcode::FCvt:
      case Opcode::Ld:
      case Opcode::FLd:
        op.src1 = slot(inst.rs1, false); // address base or int source
        break;
      case Opcode::St:
        op.src1 = slot(inst.rs1, false);
        op.src2 = slot(inst.rs2, false);
        break;
      case Opcode::FSt:
        op.src1 = slot(inst.rs1, false);
        op.src2 = slot(inst.rs2, true);
        break;
      default:
        op.src1 = slot(inst.rs1, inst.isFp());
        op.src2 = slot(inst.rs2, inst.isFp());
        break;
    }
    if (inst.writesFpReg())
        op.dst = slot(inst.rd, true);
    else if (inst.rd != noReg && inst.rd != 0)
        op.dst = slot(inst.rd, false);
    return op;
}

uint64_t
OooCore::scheduleIssue(uint64_t earliest, uint64_t horizon, FuClass fu,
                       bool is_mem, bool bypass_fu)
{
    if (bypass_fu)
        return issueTable.claim(earliest, horizon, IssueTable::kNone,
                                is_mem);
    const FuRoute &route = fuRoutes[size_t(fu)];
    if (route.divider == kNoDivider)
        return issueTable.claim(earliest, horizon, route.pool, is_mem);
    // An unpipelined divide waits for the earliest-free unit of its
    // bank (the lowest on ties) and occupies it for the full operation.
    // The bound holds for the whole scan, so the scan starts there.
    std::vector<uint64_t> &units = divFree[route.divider];
    size_t best = 0;
    for (size_t u = 1; u < units.size(); ++u)
        if (units[u] < units[best])
            best = u;
    const uint64_t c = issueTable.claim(std::max(earliest, units[best]),
                                        horizon, route.pool, is_mem);
    units[best] = c + route.latency;
    return c;
}

uint64_t
OooCore::run(TraceReplayer &src, uint64_t max_insts, BbProfiler *profiler,
             const CancelToken &cancel)
{
    // Cache rejects a non-power-of-two block, so the block is a shift.
    const unsigned l1i_shift = std::countr_zero(cfg.mem.l1i.blockBytes);
    const uint64_t frontend = cfg.core.frontendDepth;
    // Decode once per trace: the sampling walk and chunked runs call
    // run() many times on one core and trace.
    if (decodedTrace != src.trace()) {
        const Program &prog = src.trace()->program();
        decoded.resize(prog.size());
        for (uint64_t pc = 0; pc < prog.size(); ++pc)
            decoded[pc] = decode(prog.at(pc));
        decodedTrace = src.trace();
    }
    const TimingOp *ops = decoded.data();

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
            simulateOne(ops[rec.pc], Program::pcAddress(rec.pc),
                        rec.nextPc, rec.memAddr, rec.taken, rec.trivial,
                        l1i_shift, frontend);
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
OooCore::simulateOne(const TimingOp &op, uint64_t pc_addr,
                     uint64_t next_pc, uint64_t mem_addr, bool taken,
                     bool trivial_hint, unsigned l1i_shift,
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
    uint64_t block = pc_addr >> l1i_shift;
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
    if (op.control) {
        mispredicted = bp.update(pc_addr, op.condBranch, taken,
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
    const bool is_mem = op.load || op.store;
    if (is_mem) {
        uint64_t lsq_free = lsqCommit.back();
        if (lsq_free + 1 > disp_earliest)
            disp_earliest = lsq_free + 1;
    }
    uint64_t dispatch_time = dispatchStage.schedule(disp_earliest);
    fqDispatch.push(dispatch_time);

    // ---- Ready (register and memory dependences) ----
    // A missing operand reads the never-written kNoReg slot, which
    // holds at most the last reset cycle and so never delays issue.
    uint64_t ready = std::max({dispatch_time + 1, regReady[op.src1],
                               regReady[op.src2]});
    if (op.load) {
        // Store-to-load forwarding: an earlier in-flight store to the
        // same word defines the earliest load completion.
        const FwdEntry &e = storeFwd[(mem_addr >> 3) % fwdEntries];
        if (e.gen == fwdGen && e.addr == mem_addr && e.doneCycle > ready)
            ready = e.doneCycle;
    }

    // ---- Issue and execute ----
    bool trivial = tcEnabled && trivial_hint;
    if (trivial)
        ++trivialOps; // eliminated: no functional unit needed
    uint64_t issue_time =
        scheduleIssue(ready, dispatch_time, op.fu, is_mem, trivial);
    iqIssue.push(issue_time);

    uint64_t exec_done;
    uint32_t load_extra_lat = 0;
    if (op.load) {
        uint32_t dlat = mem.dataAccess(mem_addr, false);
        if (dlat > cfg.mem.l1dLatency)
            load_extra_lat = dlat - cfg.mem.l1dLatency;
        exec_done = issue_time + 1 + dlat;
    } else if (op.store) {
        mem.dataAccess(mem_addr, true);
        storeFwd[(mem_addr >> 3) % fwdEntries] =
            FwdEntry{mem_addr, issue_time + 1, fwdGen};
        exec_done = issue_time + 1; // retires via the store buffer
    } else {
        // Eliminated trivial ops complete in a single cycle.
        exec_done =
            issue_time + (trivial ? 1 : fuRoutes[size_t(op.fu)].latency);
    }

    regReady[op.dst] = exec_done;

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
    issueTable.reset();
    for (std::vector<uint64_t> &units : divFree)
        std::fill(units.begin(), units.end(), now);
    robCommit.reset();
    lsqCommit.reset();
    iqIssue.reset();
    fqDispatch.reset();
    regReady.fill(now);
    if (++fwdGen == 0) {
        // As IssueTable::reset, once per 2^32 resets.
        std::fill(storeFwd.begin(), storeFwd.end(), FwdEntry());
        fwdGen = 1;
    }
}

void
OooCore::restart()
{
    // A pipeline reset at cycle 0 leaves every clock, ring and table as
    // the constructor does; the issue table is exact at any window.
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
