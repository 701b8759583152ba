/**
 * @file
 * Reduced-input-set technique: simulate a smaller input (MinneSPEC
 * small/medium/large or SPEC test/train) to completion in detail and
 * present its results as a stand-in for the reference input's.
 *
 * The whole program — initialization, main body, cleanup — runs in
 * detail, which is the technique's selling point; the paper's finding
 * is that the results are nonetheless "a completely different benchmark
 * program" because working sets and execution profiles differ.
 */

#ifndef YASIM_TECHNIQUES_REDUCED_INPUT_HH
#define YASIM_TECHNIQUES_REDUCED_INPUT_HH

#include "techniques/technique.hh"

namespace yasim {

/** Detailed full run of a non-reference input set. */
class ReducedInput : public Technique
{
  public:
    /** @param input the reduced input set to simulate */
    explicit ReducedInput(InputSet input);

    std::string name() const override { return "reduced"; }
    std::string permutation() const override;

    TechniqueResult run(const TechniqueContext &ctx,
                        const SimConfig &config) const override;

    InputSet input() const override { return inputSet; }

  private:
    InputSet inputSet;
};

} // namespace yasim

#endif // YASIM_TECHNIQUES_REDUCED_INPUT_HH
