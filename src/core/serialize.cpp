#include "core/serialize.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/kernel_codec.hpp"

namespace semilocal {

void save_kernel(std::ostream& out, const SemiLocalKernel& kernel) {
  const std::string bytes = save_kernel_bytes(kernel);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("save_kernel: write failed");
}

SemiLocalKernel load_kernel(std::istream& in) {
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("load_kernel: read failed");
  return load_kernel_bytes(bytes);
}

void save_kernel_file(const std::string& path, const SemiLocalKernel& kernel) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_kernel_file: cannot open " + path);
  save_kernel(out, kernel);
}

SemiLocalKernel load_kernel_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_kernel_file: cannot open " + path);
  return load_kernel(in);
}

std::string save_kernel_bytes(const SemiLocalKernel& kernel) {
  return encode_kernel_v3(kernel);
}

SemiLocalKernel load_kernel_bytes(std::string_view bytes) {
  const std::uint32_t version = kernel_format_version(bytes);
  if (version == 0) throw std::runtime_error("load_kernel: bad magic");
  if (version != kKernelFormatV3) {
    throw std::runtime_error("load_kernel: unsupported version " +
                             std::to_string(version));
  }
  return CompressedKernel::open(bytes, /*owner=*/nullptr)->decode();
}

}  // namespace semilocal
