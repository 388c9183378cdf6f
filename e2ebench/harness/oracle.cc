#include "oracle.h"

#include <algorithm>
#include <map>

namespace e2e {
namespace {

bool Visible(const FactRow& row) { return row.b >= kFactFilterMinB; }

std::string Describe(const Cell& c) {
  switch (c.kind) {
    case Cell::Kind::kNull: return "NULL";
    case Cell::Kind::kInt: return std::to_string(c.i);
    case Cell::Kind::kDouble: return std::to_string(c.d);
    case Cell::Kind::kString: return "'" + c.s + "'";
  }
  return "?";
}

/// An integer result cell; aggregates may come back as DOUBLE, which must
/// then hold the integer exactly.
bool AsInt(const Cell& c, int64_t* out) {
  if (c.kind == Cell::Kind::kInt) {
    *out = c.i;
    return true;
  }
  if (c.kind == Cell::Kind::kDouble && c.d == static_cast<double>(
                                                  static_cast<int64_t>(c.d))) {
    *out = static_cast<int64_t>(c.d);
    return true;
  }
  return false;
}

std::string ExpectShape(const PlainResult& r, size_t columns) {
  if (r.columns.size() != columns) {
    return "expected " + std::to_string(columns) + " columns, got " +
           std::to_string(r.columns.size());
  }
  for (size_t i = 0; i < r.rows.size(); ++i) {
    if (r.rows[i].size() != columns) {
      return "row " + std::to_string(i) + " has " +
             std::to_string(r.rows[i].size()) + " cells";
    }
  }
  return "";
}

std::string ExpectInt(const Cell& c, int64_t want, const char* what) {
  int64_t got = 0;
  if (!AsInt(c, &got) || got != want) {
    return std::string(what) + ": expected " + std::to_string(want) +
           ", got " + Describe(c);
  }
  return "";
}

std::string ExpectStr(const Cell& c, const std::string& want,
                      const char* what) {
  if (c.kind != Cell::Kind::kString || c.s != want) {
    return std::string(what) + ": expected '" + want + "', got " + Describe(c);
  }
  return "";
}

#define E2E_RETURN_IF_MISMATCH(expr) \
  do {                               \
    std::string _err = (expr);       \
    if (!_err.empty()) return _err;  \
  } while (0)

}  // namespace

std::string MaskLast4(const std::string& raw) {
  if (raw.size() <= 4) return std::string(raw.size(), '*');
  return std::string(raw.size() - 4, '*') + raw.substr(raw.size() - 4);
}

std::string ApplyMask(MaskRule rule, const std::string& raw) {
  switch (rule) {
    case MaskRule::kRaw: return raw;
    case MaskRule::kLast4: return MaskLast4(raw);
    case MaskRule::kRedact: return "[REDACTED]";
  }
  return raw;
}

MaskRule MaskRuleOfSql(const std::string& mask_sql) {
  if (mask_sql.rfind("MASK(", 0) == 0) return MaskRule::kLast4;
  if (mask_sql.rfind("REDACT(", 0) == 0) return MaskRule::kRedact;
  return MaskRule::kRaw;
}

std::vector<std::string> AllowedValues(const std::string& raw,
                                       const std::vector<MaskRule>& published) {
  std::vector<std::string> allowed;
  for (MaskRule rule : published) allowed.push_back(ApplyMask(rule, raw));
  if (published.empty()) allowed.push_back(raw);
  return allowed;
}

uint64_t RowHash(int64_t a, int64_t b, const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ull;
  };
  for (const int64_t v : {a, b}) {
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i)));
    }
  }
  for (char c : s) mix(static_cast<uint8_t>(c));
  return h;
}

std::string CheckAgg(const FactData& data, int64_t min_a,
                     const PlainResult& result) {
  std::map<int64_t, std::pair<int64_t, int64_t>> want;  // b -> (n, sum a)
  for (const FactRow& row : data.fact) {
    if (!Visible(row) || row.a < min_a) continue;
    auto& g = want[row.b];
    ++g.first;
    g.second += row.a;
  }
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 3));
  if (result.rows.size() != want.size()) {
    return "agg: expected " + std::to_string(want.size()) + " groups, got " +
           std::to_string(result.rows.size());
  }
  std::map<int64_t, bool> seen;
  for (const PlainRow& row : result.rows) {
    int64_t b = 0;
    if (!AsInt(row[0], &b)) return "agg: group key " + Describe(row[0]);
    auto it = want.find(b);
    if (it == want.end() || seen[b]) {
      return "agg: unexpected or repeated group b=" + std::to_string(b);
    }
    seen[b] = true;
    E2E_RETURN_IF_MISMATCH(ExpectInt(row[1], it->second.first, "agg count"));
    E2E_RETURN_IF_MISMATCH(ExpectInt(row[2], it->second.second, "agg sum"));
  }
  return "";
}

std::string CheckJoin(const FactData& data, int64_t min_a,
                      const PlainResult& result) {
  std::map<int64_t, int64_t> per_key;
  for (const FactRow& row : data.fact) {
    if (Visible(row) && row.a >= min_a) ++per_key[row.b];
  }
  std::map<std::string, int64_t> want;
  for (const DimRow& dim : data.dim) {
    auto it = per_key.find(dim.k);
    if (it != per_key.end()) want[dim.name] += it->second;
  }
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 2));
  if (result.rows.size() != want.size()) {
    return "join: expected " + std::to_string(want.size()) + " keys, got " +
           std::to_string(result.rows.size());
  }
  std::map<std::string, bool> seen;
  for (const PlainRow& row : result.rows) {
    if (row[0].kind != Cell::Kind::kString) {
      return "join: key " + Describe(row[0]);
    }
    auto it = want.find(row[0].s);
    if (it == want.end() || seen[row[0].s]) {
      return "join: unexpected or repeated key '" + row[0].s + "'";
    }
    seen[row[0].s] = true;
    E2E_RETURN_IF_MISMATCH(ExpectInt(row[1], it->second, "join count"));
  }
  return "";
}

std::string CheckTopK(const FactData& data, int64_t excluded_b,
                      const PlainResult& result) {
  std::vector<const FactRow*> rows;
  for (const FactRow& row : data.fact) {
    if (Visible(row) && row.b != excluded_b) rows.push_back(&row);
  }
  const size_t k = std::min<size_t>(kTopK, rows.size());
  std::partial_sort(rows.begin(), rows.begin() + k, rows.end(),
                    [](const FactRow* x, const FactRow* y) {
                      return x->b != y->b ? x->b > y->b : x->a < y->a;
                    });
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 3));
  if (result.rows.size() != k) {
    return "topk: expected " + std::to_string(k) + " rows, got " +
           std::to_string(result.rows.size());
  }
  for (size_t i = 0; i < k; ++i) {
    const PlainRow& got = result.rows[i];
    E2E_RETURN_IF_MISMATCH(ExpectInt(got[0], rows[i]->a, "topk a"));
    E2E_RETURN_IF_MISMATCH(ExpectInt(got[1], rows[i]->b, "topk b"));
    E2E_RETURN_IF_MISMATCH(ExpectStr(got[2], MaskLast4(rows[i]->s), "topk s"));
  }
  return "";
}

std::string CheckUdf(const FactData& data, int64_t max_a,
                     const PlainResult& result) {
  int64_t sum = 0;
  int64_t count = 0;
  for (const FactRow& row : data.fact) {
    if (!Visible(row) || row.a >= max_a) continue;
    sum += row.a + row.b;
    ++count;
  }
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 2));
  if (result.rows.size() != 1) return "udf: expected one row";
  E2E_RETURN_IF_MISMATCH(ExpectInt(result.rows[0][0], sum, "udf sum"));
  return ExpectInt(result.rows[0][1], count, "udf count");
}

std::string CheckExport(const FactData& data, int64_t lo,
                        const PlainResult& result) {
  uint64_t want_sum = 0;
  size_t want_rows = 0;
  for (const FactRow& row : data.fact) {
    if (!Visible(row) || row.a < lo || row.a >= lo + kExportWindow) continue;
    want_sum += RowHash(row.a, row.b, MaskLast4(row.s));
    ++want_rows;
  }
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 3));
  if (result.rows.size() != want_rows) {
    return "export: expected " + std::to_string(want_rows) + " rows, got " +
           std::to_string(result.rows.size());
  }
  uint64_t got_sum = 0;
  for (const PlainRow& row : result.rows) {
    int64_t a = 0;
    int64_t b = 0;
    if (!AsInt(row[0], &a) || !AsInt(row[1], &b) ||
        row[2].kind != Cell::Kind::kString) {
      return "export: malformed row";
    }
    got_sum += RowHash(a, b, row[2].s);
  }
  return got_sum == want_sum ? "" : "export: checksum mismatch";
}

std::string CheckPoint(const std::vector<AccountRow>& accounts,
                       const std::string& user, int64_t id,
                       const std::vector<MaskRule>& published,
                       const PlainResult& result) {
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 4));
  const AccountRow* row = nullptr;
  for (const AccountRow& account : accounts) {
    if (account.id == id) row = &account;
  }
  const bool own = row != nullptr && row->owner == user;
  if (result.rows.size() != (own ? 1u : 0u)) {
    return "point: " + user + " reading id " + std::to_string(id) +
           " expected " + (own ? "1 row" : "0 rows") + ", got " +
           std::to_string(result.rows.size());
  }
  if (!own) return "";
  const PlainRow& got = result.rows[0];
  E2E_RETURN_IF_MISMATCH(ExpectInt(got[0], row->id, "point id"));
  E2E_RETURN_IF_MISMATCH(ExpectStr(got[1], row->owner, "point owner"));
  E2E_RETURN_IF_MISMATCH(ExpectInt(got[3], row->bal, "point bal"));
  const std::vector<std::string> allowed = AllowedValues(row->ssn, published);
  if (got[2].kind != Cell::Kind::kString ||
      std::find(allowed.begin(), allowed.end(), got[2].s) == allowed.end()) {
    return "point: ssn " + Describe(got[2]) +
           " is not a rendering of any published mask";
  }
  return "";
}

std::string CheckSmallAgg(const std::vector<AccountRow>& accounts,
                          const std::string& user, const PlainResult& result) {
  int64_t count = 0;
  int64_t sum = 0;
  for (const AccountRow& account : accounts) {
    if (account.owner != user) continue;
    ++count;
    sum += account.bal;
  }
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 2));
  if (result.rows.size() != 1) return "small_agg: expected one row";
  E2E_RETURN_IF_MISMATCH(ExpectInt(result.rows[0][0], count, "small_agg n"));
  if (count == 0) {
    return result.rows[0][1].kind == Cell::Kind::kNull
               ? ""
               : "small_agg: expected NULL sum";
  }
  return ExpectInt(result.rows[0][1], sum, "small_agg sum");
}

std::string CheckEventCount(uint64_t acknowledged, const PlainResult& result) {
  E2E_RETURN_IF_MISMATCH(ExpectShape(result, 1));
  if (result.rows.size() != 1) return "events: expected one row";
  return ExpectInt(result.rows[0][0], static_cast<int64_t>(acknowledged),
                   "events count");
}

}  // namespace e2e
