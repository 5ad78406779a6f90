/**
 * @file
 * Functional byte store for DDR DRAM contents.
 *
 * Timing is modelled separately by DdrChannel; this class only holds
 * the bytes. Agents that bypass the cache hierarchy (the DMS, which
 * sits at the memory controller) read and write here directly, which
 * is exactly why software-managed coherence (flush before DMS read,
 * invalidate before cached read of DMS output) is required on the
 * real chip and in this simulator alike.
 *
 * The bytes live in an anonymous mapping rather than on the heap:
 * the image starts zeroed without a memset, pages materialize on
 * first touch (a 256 MB DDR image costs what the workload uses),
 * and multi-megabyte images never move malloc's dynamic mmap and
 * trim thresholds, so building a topology costs the same whatever
 * the heap looked like before.
 */

#ifndef DPU_MEM_BACKING_STORE_HH
#define DPU_MEM_BACKING_STORE_HH

#include <cstdint>
#include <cstring>

#include <sys/mman.h>

#include "mem/addr.hh"
#include "sim/logging.hh"

namespace dpu::mem {

/** Plain byte-addressable storage for the DDR channel. */
class BackingStore
{
  public:
    explicit BackingStore(std::size_t bytes) : n(bytes)
    {
        sim_assert(n > 0, "a DDR image needs at least one byte");
        void *p = mmap(nullptr, n, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        sim_assert(p != MAP_FAILED, "cannot map a %zu-byte DDR image",
                   n);
        mem = static_cast<std::uint8_t *>(p);
    }

    ~BackingStore() { munmap(mem, n); }

    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    std::size_t size() const { return n; }

    void
    read(Addr addr, void *dst, std::size_t len) const
    {
        sim_assert(addr + len <= n,
                   "DDR read out of range: addr=%llx len=%zu",
                   (unsigned long long)addr, len);
        std::memcpy(dst, mem + addr, len);
    }

    void
    write(Addr addr, const void *src, std::size_t len)
    {
        sim_assert(addr + len <= n,
                   "DDR write out of range: addr=%llx len=%zu",
                   (unsigned long long)addr, len);
        std::memcpy(mem + addr, src, len);
    }

    template <typename T>
    T
    load(Addr addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Addr addr, T v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Direct pointer for bulk workload setup (host-side only). */
    std::uint8_t *raw() { return mem; }
    const std::uint8_t *raw() const { return mem; }

  private:
    std::size_t n;
    std::uint8_t *mem;
};

} // namespace dpu::mem

#endif // DPU_MEM_BACKING_STORE_HH
