// Operation traces: a plain-text format for recording and replaying op
// streams (one op per line: `put <hexkey> <size>`, `get <hexkey>`,
// `del <hexkey>`), so runs can be captured from generators or external
// tools and replayed bit-identically against any device configuration.
// A parsed trace IS an OpStream: run it with any executor in runner.h.
#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "workload/op_stream.h"

namespace bandslim::workload {

// Serialization. Keys are hex-encoded (they may contain arbitrary bytes).
// Stamps, tenants and fills are not recorded: ReadTrace applies the
// PUT-spec payload rule (fill 0xA5, stamp = op index), so replaying a
// written PutStream issues exactly the bytes the direct run issues.
void WriteTrace(const OpStream& trace, std::ostream& out);
Result<OpStream> ReadTrace(std::istream& in);

std::string HexEncode(const std::string& raw);
Result<std::string> HexDecode(const std::string& hex);

}  // namespace bandslim::workload
