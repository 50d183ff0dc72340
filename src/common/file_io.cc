#include "common/file_io.h"

#include <cstdio>
#include <memory>

namespace djvu {
namespace {

using File = std::unique_ptr<std::FILE, int (*)(std::FILE*)>;

}  // namespace

Bytes read_file(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) throw Error("cannot open " + path + " for reading");
  Bytes data;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  if (std::ferror(f.get()) != 0) throw Error("read failed: " + path);
  return data;
}

void write_file(const std::string& path, BytesView data) {
  File f(std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!f) throw Error("cannot open " + path + " for writing");
  // An empty view's data() may be null, which fwrite must not be given.
  const bool wrote =
      (data.empty() ||
       std::fwrite(data.data(), 1, data.size(), f.get()) == data.size()) &&
      std::fflush(f.get()) == 0;
  // fclose's result is the last word on buffered data, so it is checked
  // rather than left to the deleter.
  if (std::fclose(f.release()) != 0 || !wrote) {
    throw Error("write failed: " + path);
  }
}

}  // namespace djvu
