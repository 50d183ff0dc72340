// Whole-file reads and writes, with every stdio failure reported.
#pragma once

#include <string>

#include "common/bytes.h"

namespace djvu {

/// The whole contents of `path`.  Throws Error naming the path when it
/// cannot be opened or read.
Bytes read_file(const std::string& path);

/// Replaces `path` with `data`.  Throws Error naming the path when the open,
/// the write, the flush or the close fails (a full disk often shows only at
/// the flush).
void write_file(const std::string& path, BytesView data);

}  // namespace djvu
