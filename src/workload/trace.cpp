#include "workload/trace.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

namespace bandslim::workload {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

// Strict positive decimal. from_chars rejects a sign, overflow and trailing
// characters, where operator>> would wrap "-1" to 4294967295.
bool ParseSize(const std::string& text, std::uint32_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && *out > 0;
}
}  // namespace

std::string HexEncode(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() * 2);
  for (unsigned char c : raw) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xF]);
  }
  return out;
}

Result<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) return Status::InvalidArgument("odd hex length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return Status::InvalidArgument("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

void WriteTrace(const OpStream& trace, std::ostream& out) {
  for (const Op& op : trace) {
    switch (op.kind) {
      case OpKind::kPut:
        out << "put " << HexEncode(op.key) << ' ' << op.value_size << '\n';
        break;
      case OpKind::kGet:
        out << "get " << HexEncode(op.key) << '\n';
        break;
      case OpKind::kDelete:
        out << "del " << HexEncode(op.key) << '\n';
        break;
    }
  }
}

Result<OpStream> ReadTrace(std::istream& in) {
  OpStream trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const auto corrupt = [&](const std::string& what) {
      return Status::Corruption(what + ", line " + std::to_string(lineno));
    };
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    for (std::string token; ls >> token;) tokens.push_back(std::move(token));
    if (tokens.size() < 2) return corrupt("truncated trace op");
    Op op;
    if (tokens[0] == "put") {
      if (tokens.size() != 3 || !ParseSize(tokens[2], &op.value_size)) {
        return corrupt("bad put size");
      }
    } else if (tokens[0] == "get" || tokens[0] == "del") {
      if (tokens.size() != 2) return corrupt("trailing tokens");
      op.kind = tokens[0] == "get" ? OpKind::kGet : OpKind::kDelete;
    } else {
      return corrupt("unknown op '" + tokens[0] + "'");
    }
    auto key = HexDecode(tokens[1]);
    if (!key.ok()) return corrupt("bad hex key");
    op.key = std::move(key).value();
    op.stamp = trace.size();
    trace.push_back(std::move(op));
  }
  return trace;
}

}  // namespace bandslim::workload
