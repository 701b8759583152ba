/**
 * @file
 * Sparse paged data memory for the functional simulator.
 *
 * Workloads address tens of megabytes out of a large virtual space, so
 * backing storage is allocated in 64 KB pages on first write. All
 * values are 64-bit words at 8-byte-aligned addresses; doubles are
 * stored bit-cast. Reads of unwritten memory return zero, matching a
 * zero-initialized heap, and allocate nothing.
 */

#ifndef YASIM_SIM_MEMORY_HH
#define YASIM_SIM_MEMORY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>


namespace yasim {

/** Base virtual address workloads use for heap data. */
constexpr uint64_t heapBase = 0x20000000;

/** Sparse 64-bit-word memory. */
class SparseMemory
{
  public:
    SparseMemory();

    /** Read the word at @p addr (8-byte aligned). */
    int64_t read(uint64_t addr);

    /** Write the word at @p addr (8-byte aligned). */
    void write(uint64_t addr, int64_t value);

    /** Read a double (bit-cast of the stored word). */
    double readDouble(uint64_t addr);

    /** Write a double (stored bit-cast). */
    void writeDouble(uint64_t addr, double value);

    /** Number of distinct pages written so far. */
    size_t pagesTouched() const { return pages.size(); }

    /** Drop all contents (fresh zeroed memory). */
    void clear();

  private:
    static constexpr uint64_t pageBytes = 1ULL << 16;
    static constexpr uint64_t wordsPerPage = pageBytes / 8;

    using Page = std::vector<int64_t>;

    /**
     * The word at @p addr. A page not yet written is allocated when
     * @p allocate is set; otherwise the result is null.
     */
    int64_t *wordPtr(uint64_t addr, bool allocate);

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages;
    /** One-entry translation cache: most accesses stay on one page. */
    uint64_t lastPageId = ~0ULL;
    Page *lastPage = nullptr;
};

} // namespace yasim

#endif // YASIM_SIM_MEMORY_HH
