// pmemkit/mapped_file.hpp — RAII memory-mapped pool backing file.
//
// This is the stand-in for a DAX mapping of real persistent media: the file
// plays the role of the persistence domain.  Mapping is MAP_SHARED, so the
// image survives process exit exactly like media survives power-down — the
// *crash-consistency* question (which unflushed stores survive?) is answered
// separately by the PmemSan persistence-domain model.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>

namespace cxlpmem::pmemkit {

class MappedFile {
 public:
  /// Creates a file of `size` bytes (zero-filled) and maps it.  Fails if the
  /// file already exists.
  static MappedFile create(const std::filesystem::path& path,
                           std::size_t size);

  /// Maps an existing file read-write at its current size.
  static MappedFile open(const std::filesystem::path& path);

  MappedFile() = default;
  MappedFile(MappedFile&& o) noexcept { *this = std::move(o); }
  MappedFile& operator=(MappedFile&& o) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] bool valid() const noexcept { return data_ != nullptr; }

  /// Flushes the whole mapping to the backing file (msync).  Used on clean
  /// close; crash simulation bypasses this on purpose.
  void sync();

  /// Resizes the backing file (ftruncate) and remaps it (mremap, which may
  /// move the mapping — callers must re-derive every raw pointer from
  /// data()).  Both failure modes surface as PoolError(ErrKind::Io) with
  /// the failing path and errno in the message; on failure the mapping is
  /// left at its original size and stays valid.
  void resize(std::size_t new_size);

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  int fd_ = -1;
  std::filesystem::path path_;
};

}  // namespace cxlpmem::pmemkit
