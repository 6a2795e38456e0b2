/**
 * @file
 * Byte-level input shared by the snapshot (ASNP) and trace (ATRC)
 * readers: the little-endian codec of their fixed-width fields and
 * MappedFile, a read-only whole-file byte source.
 */

#ifndef ATHENA_COMMON_BYTES_HH
#define ATHENA_COMMON_BYTES_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace athena
{

/** Little-endian u16 / u32 / u64 at an unaligned address. */
template <class T>
inline T
loadLe(const std::uint8_t *p)
{
    static_assert(std::is_unsigned_v<T> && sizeof(T) >= 2 &&
                      sizeof(T) <= 8,
                  "u16, u32 or u64");
    T v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof(T) == 2)
            v = __builtin_bswap16(v);
        else if constexpr (sizeof(T) == 4)
            v = __builtin_bswap32(v);
        else
            v = __builtin_bswap64(v);
    }
    return v;
}

template <class T>
inline void
storeLe(std::uint8_t *p, T v)
{
    static_assert(std::is_unsigned_v<T> && sizeof(T) >= 2 &&
                      sizeof(T) <= 8,
                  "u16, u32 or u64");
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof(T) == 2)
            v = __builtin_bswap16(v);
        else if constexpr (sizeof(T) == 4)
            v = __builtin_bswap32(v);
        else
            v = __builtin_bswap64(v);
    }
    std::memcpy(p, &v, sizeof(v));
}

inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    return loadLe<std::uint64_t>(p);
}

inline void
storeLe64(std::uint8_t *p, std::uint64_t v)
{
    storeLe<std::uint64_t>(p, v);
}

/**
 * The bytes of one file, read-only, for as long as the object
 * lives. A file is mapped PROT_READ / MAP_PRIVATE, so a multi-GB
 * trace costs address space, not RSS; where mmap refuses (an empty
 * file, a pipe, a file system without mmap) the file is read whole
 * instead. The destructor releases the mapping. A MappedFile can
 * also own an in-memory image, so readers have one byte source
 * whatever the bytes came from.
 */
class MappedFile
{
  public:
    /** Map or read @p path; throws std::runtime_error naming it when
     *  it cannot be opened or read (a directory, say). */
    explicit MappedFile(const std::string &path);
    /** Own @p image. */
    explicit MappedFile(std::vector<std::uint8_t> image);
    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::uint8_t *data() const { return bytes; }
    std::size_t size() const { return len; }

  private:
    const std::uint8_t *bytes = nullptr;
    std::size_t len = 0;
    /** The mapping to release; null when not mapped. */
    void *map = nullptr;
    /** The image when not mapped. */
    std::vector<std::uint8_t> owned;
};

} // namespace athena

#endif // ATHENA_COMMON_BYTES_HH
