// Unique per-test scratch directories for every test that touches disk.
//
// Paths incorporate the running gtest suite/test name, the pid, and a
// per-process serial, so `ctest -j N` (and several presets building the same
// source tree) can run disk-writing tests concurrently without ever sharing
// a path. The directory is created on construction and removed on
// destruction.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>

#include <unistd.h>

namespace semilocal::testing {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag = "") {
    namespace fs = std::filesystem;
    std::string name = "semilocal";
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    if (!tag.empty()) name += "_" + tag;
    for (char& c : name) {
      if (c == '/' || c == '\\' || c == ':') c = '_';
    }
    static std::atomic<std::uint64_t> serial{0};
    name += '_';
    name += std::to_string(::getpid());
    name += '_';
    name += std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
    path_ = fs::path(::testing::TempDir()) / name;
    fs::remove_all(path_);
    fs::create_directories(path_);
  }

  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// A file path inside the scratch directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace semilocal::testing
