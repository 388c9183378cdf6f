#ifndef E2EBENCH_HARNESS_ORACLE_H_
#define E2EBENCH_HARNESS_ORACLE_H_

// Independent result oracle. Expected answers are computed in plain C++ from
// the generated rows with the workload's policies applied (row filter, mask,
// the UDF's arithmetic) — no Value, evaluator or engine code. Results come
// in as PlainResult, copied out of the returned tables by ToPlain.
// Every Check* returns "" on a match and a description of the first
// mismatch otherwise.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace e2e {

struct Cell {
  enum class Kind { kNull, kInt, kDouble, kString };
  Kind kind = Kind::kNull;
  int64_t i = 0;
  double d = 0;
  std::string s;

  static Cell Int(int64_t v) { Cell c; c.kind = Kind::kInt; c.i = v; return c; }
  static Cell Str(std::string v) {
    Cell c; c.kind = Kind::kString; c.s = std::move(v); return c;
  }
};
using PlainRow = std::vector<Cell>;

struct PlainResult {
  std::vector<std::string> columns;
  std::vector<PlainRow> rows;
};

/// `MASK(x)`: all but the last four characters become '*'.
std::string MaskLast4(const std::string& raw);

/// What a published column-mask version shows for a raw value.
enum class MaskRule { kRaw, kLast4, kRedact };
std::string ApplyMask(MaskRule rule, const std::string& raw);
MaskRule MaskRuleOfSql(const std::string& mask_sql);
/// Values a reader may see for `raw` when any of `published` may be in
/// effect: masked whenever every version masks, raw whenever none does.
std::vector<std::string> AllowedValues(const std::string& raw,
                                       const std::vector<MaskRule>& published);

/// Order-independent checksum term of one exported row.
uint64_t RowHash(int64_t a, int64_t b, const std::string& s);

// ---- analytics / export (analyst; filter b >= 100, MASK(s)) -----------------
std::string CheckAgg(const FactData& data, int64_t min_a,
                     const PlainResult& result);
std::string CheckJoin(const FactData& data, int64_t min_a,
                      const PlainResult& result);
std::string CheckTopK(const FactData& data, int64_t excluded_b,
                      const PlainResult& result);
/// SUM(u0(a, b)) with u0(a, b) = a + b, over a < max_a.
std::string CheckUdf(const FactData& data, int64_t max_a,
                     const PlainResult& result);
/// Row count and checksum of `SELECT a, b, s WHERE lo <= a < lo + window`.
std::string CheckExport(const FactData& data, int64_t lo,
                        const PlainResult& result);

// ---- interactive (filter owner = CURRENT_USER(), ssn masked) ----------------
std::string CheckPoint(const std::vector<AccountRow>& accounts,
                       const std::string& user, int64_t id,
                       const std::vector<MaskRule>& published,
                       const PlainResult& result);
std::string CheckSmallAgg(const std::vector<AccountRow>& accounts,
                          const std::string& user, const PlainResult& result);
/// Final COUNT(*) of events against the acknowledged INSERTs.
std::string CheckEventCount(uint64_t acknowledged, const PlainResult& result);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_ORACLE_H_
