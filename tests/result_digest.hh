/**
 * @file
 * A content digest of a TechniqueResult for pinned-result tests.
 *
 * Covers the exact bits of every field the bit-identity checks
 * compare: labels, CPI and metrics, the BBEF/BBV profiles, modeled
 * cost, detailed-instruction count, and every SimStats counter. A
 * test pins the digest of a result computed once by an independent
 * path (live functional interpretation, before that path was retired)
 * as a string literal, and compares today's result against it.
 */

#ifndef YASIM_TESTS_RESULT_DIGEST_HH
#define YASIM_TESTS_RESULT_DIGEST_HH

#include <string>
#include <vector>

#include "support/hash.hh"
#include "techniques/technique.hh"

namespace yasim {

inline std::string
resultDigest(const TechniqueResult &r)
{
    Hasher h;
    h.str(r.technique).str(r.permutation).d(r.cpi);
    for (const std::vector<double> *v : {&r.metrics, &r.bbef, &r.bbv}) {
        h.u64(v->size());
        for (double x : *v)
            h.d(x);
    }
    h.d(r.workUnits).u64(r.detailedInsts);
    const SimStats &s = r.detailed;
    for (uint64_t v :
         {s.instructions, s.cycles, s.condBranches, s.condMispredicts,
          s.l1iAccesses, s.l1iMisses, s.l1dAccesses, s.l1dMisses,
          s.l2Accesses, s.l2Misses, s.trivialOps, s.prefetchesIssued,
          s.memStallCycles})
        h.u64(v);
    return h.hex();
}

} // namespace yasim

#endif // YASIM_TESTS_RESULT_DIGEST_HH
