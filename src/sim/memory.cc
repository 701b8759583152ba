#include "sim/memory.hh"

#include <bit>

#include "support/logging.hh"

namespace yasim {

SparseMemory::SparseMemory() = default;

int64_t *
SparseMemory::wordPtr(uint64_t addr, bool allocate)
{
    YASIM_ASSERT((addr & 7) == 0);
    uint64_t page_id = addr / pageBytes;
    if (page_id != lastPageId) {
        auto it = pages.find(page_id);
        if (it == pages.end()) {
            if (!allocate)
                return nullptr;
            it = pages.emplace(page_id,
                               std::make_unique<Page>(wordsPerPage, 0))
                     .first;
        }
        lastPageId = page_id;
        lastPage = it->second.get();
    }
    return &(*lastPage)[(addr % pageBytes) / 8];
}

int64_t
SparseMemory::read(uint64_t addr)
{
    const int64_t *word = wordPtr(addr, false);
    return word ? *word : 0;
}

void
SparseMemory::write(uint64_t addr, int64_t value)
{
    *wordPtr(addr, true) = value;
}

double
SparseMemory::readDouble(uint64_t addr)
{
    return std::bit_cast<double>(read(addr));
}

void
SparseMemory::writeDouble(uint64_t addr, double value)
{
    write(addr, std::bit_cast<int64_t>(value));
}

void
SparseMemory::clear()
{
    pages.clear();
    lastPageId = ~0ULL;
    lastPage = nullptr;
}

} // namespace yasim
