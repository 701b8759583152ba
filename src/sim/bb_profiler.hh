/**
 * @file
 * Basic-block execution profiler.
 *
 * Accumulates the two execution-profile distributions of the paper's
 * characterization B: BBEF (times each static basic block was entered)
 * and BBV (dynamic instructions attributed to each block, SimPoint's
 * "basic block vector"). Counts can be weighted, which lets SimPoint
 * scale each simulation point's profile by its cluster weight so the
 * aggregate is comparable to a full-run profile.
 */

#ifndef YASIM_SIM_BB_PROFILER_HH
#define YASIM_SIM_BB_PROFILER_HH

#include <vector>

#include "isa/program.hh"
#include "sim/trace.hh"

namespace yasim {

/** Weighted BBEF/BBV accumulator for one program. */
class BbProfiler
{
  public:
    /** The program must outlive the profiler (a reference is kept). */
    explicit BbProfiler(const Program &program);
    explicit BbProfiler(Program &&) = delete;

    /** Attribute one dynamic instruction at @p pc. */
    void record(uint64_t pc)
    {
        uint32_t block = prog.blockOf(pc);
        bbvCounts[block] += weight;
        if (pc == prog.basicBlocks()[block].first)
            bbefCounts[block] += weight;
    }

    /** Attribute a batch of records (the batch face of record()). */
    void recordBatch(const ExecRecord *recs, uint64_t n)
    {
        for (uint64_t i = 0; i < n; ++i)
            record(recs[i].pc);
    }

    /** Scale subsequent records (SimPoint cluster weighting). */
    void setWeight(double w) { weight = w; }

    /** Execution count per static basic block. */
    const std::vector<double> &bbef() const { return bbefCounts; }

    /** Instruction count per static basic block. */
    const std::vector<double> &bbv() const { return bbvCounts; }

    /** Zero both distributions. */
    void clear();

  private:
    const Program &prog;
    std::vector<double> bbefCounts;
    std::vector<double> bbvCounts;
    double weight = 1.0;
};

} // namespace yasim

#endif // YASIM_SIM_BB_PROFILER_HH
