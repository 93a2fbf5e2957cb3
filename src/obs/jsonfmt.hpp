// Shared formatting for the observability exports (time series, traces,
// manifests, bench summaries). One implementation so every JSON/CSV surface
// renders the same value to the same bytes — the regression gate diffs these
// files across runs and formatting noise would look like drift.
#pragma once

#include <string>
#include <string_view>

namespace nocw::obs {

/// Shortest decimal string that parses back to exactly `v` (so exports stay
/// diffable without dragging 17 digits everywhere). Non-finite values render
/// as "null": JSON has no NaN/Inf literals.
[[nodiscard]] std::string json_number(double v);

/// Escape for a JSON string body: backslash-escapes quotes and backslashes,
/// drops control characters (names are ASCII identifiers in this repo).
[[nodiscard]] std::string json_escape(std::string_view s);

/// RFC 4180 CSV field: quoted iff it contains a separator, quote, or
/// newline, with embedded quotes doubled.
[[nodiscard]] std::string csv_escape(std::string_view s);

}  // namespace nocw::obs
