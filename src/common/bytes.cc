/**
 * @file
 * MappedFile: the one place the simulator reads a file's bytes.
 */

#include "common/bytes.hh"

#include <cerrno>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace athena
{

namespace
{

/** Closes a file descriptor at scope exit. */
struct FdGuard
{
    int fd;
    ~FdGuard()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

[[noreturn]] void
ioError(const char *what, const std::string &path)
{
    throw std::system_error(errno, std::generic_category(),
                            std::string(what) + " '" + path + "'");
}

} // namespace

MappedFile::MappedFile(const std::string &path)
{
    const FdGuard file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
    if (file.fd < 0)
        ioError("cannot open", path);
    struct stat st;
    if (::fstat(file.fd, &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_size > 0) {
        const auto n = static_cast<std::size_t>(st.st_size);
        void *base =
            ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, file.fd, 0);
        if (base != MAP_FAILED) {
            map = base;
            bytes = static_cast<const std::uint8_t *>(base);
            len = n;
            return;
        }
    }
    // mmap refused: read to end of file (a directory fails here).
    std::size_t got = 0;
    for (;;) {
        if (got == owned.size())
            owned.resize(got < 4096 ? 4096 : 2 * got);
        const ssize_t n =
            ::read(file.fd, owned.data() + got, owned.size() - got);
        if (n == 0)
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ioError("cannot read", path);
        }
        got += static_cast<std::size_t>(n);
    }
    owned.resize(got);
    bytes = owned.data();
    len = got;
}

MappedFile::MappedFile(std::vector<std::uint8_t> image)
    : owned(std::move(image))
{
    bytes = owned.data();
    len = owned.size();
}

MappedFile::~MappedFile()
{
    if (map)
        ::munmap(map, len);
}

} // namespace athena
