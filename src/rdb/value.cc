#include "rdb/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/str_util.h"

namespace xmlrdb::rdb {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull: return "NULL";
    case DataType::kInt: return "INTEGER";
    case DataType::kDouble: return "DOUBLE";
    case DataType::kString: return "VARCHAR";
    case DataType::kBool: return "BOOLEAN";
  }
  return "UNKNOWN";
}

Result<DataType> ParseDataType(const std::string& name) {
  std::string n = ToLower(name);
  if (n == "integer" || n == "int" || n == "bigint") return DataType::kInt;
  if (n == "double" || n == "float" || n == "real") return DataType::kDouble;
  if (n == "varchar" || n == "text" || n == "string" || n == "char") {
    return DataType::kString;
  }
  if (n == "boolean" || n == "bool") return DataType::kBool;
  return Status::ParseError("unknown type name '" + name + "'");
}

DataType Value::type() const {
  switch (rep_.index()) {
    case 0: return DataType::kNull;
    case 1: return DataType::kInt;
    case 2: return DataType::kDouble;
    case 3: return DataType::kString;
    case 4: return DataType::kBool;
  }
  return DataType::kNull;
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(rep_)) {
    return static_cast<double>(std::get<int64_t>(rep_));
  }
  return std::get<double>(rep_);
}

namespace {

// 2^63 as a double; exactly representable. Doubles at or above it (resp.
// below -2^63) are outside int64 range.
constexpr double kInt64Bound = 9223372036854775808.0;

/// Total order on doubles: -inf < ... < +inf < NaN. Ordering NaN after every
/// other double (instead of "equal to everything") keeps Compare a strict
/// weak ordering, which std::sort and the b-tree comparator require.
int CompareDoubles(double a, double b) {
  bool an = std::isnan(a), bn = std::isnan(b);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? 1 : -1;
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}

/// Exact int64-vs-double comparison. Widening the int via AsDouble() loses
/// precision above 2^53 (e.g. 2^63-1 == 2^63.0 under the lossy scheme);
/// instead compare against the double's integer part and fraction.
int CompareIntWithDouble(int64_t i, double d) {
  if (std::isnan(d)) return -1;  // numbers order before NaN
  if (d >= kInt64Bound) return -1;
  if (d < -kInt64Bound) return 1;
  int64_t t = static_cast<int64_t>(d);  // trunc toward zero; in range
  if (i != t) return i < t ? -1 : 1;
  // Equal integer parts: the fraction decides. Above 2^53 doubles are
  // integral, so both terms below are exact in every regime.
  double frac = d - static_cast<double>(t);
  if (frac > 0) return -1;
  if (frac < 0) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& other) const {
  // Same-type integers and strings first: they are the index keys, and a
  // B+-tree probe compares them many times.
  if (const auto* x = std::get_if<int64_t>(&rep_)) {
    if (const auto* y = std::get_if<int64_t>(&other.rep_)) {
      return (*x > *y) - (*x < *y);
    }
  } else if (const auto* s = std::get_if<std::string>(&rep_)) {
    if (const auto* t = std::get_if<std::string>(&other.rep_)) {
      int c = s->compare(*t);
      return (c > 0) - (c < 0);
    }
  }
  bool an = is_null(), bn = other.is_null();
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;
  }
  DataType ta = type(), tb = other.type();
  bool a_num = ta == DataType::kInt || ta == DataType::kDouble;
  bool b_num = tb == DataType::kInt || tb == DataType::kDouble;
  if (a_num && b_num) {
    if (ta == DataType::kInt && tb == DataType::kInt) {
      int64_t x = AsInt(), y = other.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    if (ta == DataType::kInt) return CompareIntWithDouble(AsInt(), other.AsDouble());
    if (tb == DataType::kInt) return -CompareIntWithDouble(other.AsInt(), AsDouble());
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  if (ta != tb) return static_cast<int>(ta) < static_cast<int>(tb) ? -1 : 1;
  switch (ta) {
    case DataType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case DataType::kBool:
      return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull: return 0x9e3779b9;
    case DataType::kInt: return std::hash<int64_t>{}(AsInt());
    case DataType::kDouble: {
      // Hash ints and int-valued doubles identically so mixed-type equi-joins
      // work through the hash join. The range guard must come first: casting
      // an out-of-int64-range (or NaN) double is undefined behavior.
      double d = AsDouble();
      if (std::isnan(d)) return 0x7ff8dead;  // all NaNs compare equal
      if (std::abs(d) < 9.2e18 &&
          d == static_cast<double>(static_cast<int64_t>(d))) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case DataType::kString: return std::hash<std::string>{}(AsString());
    case DataType::kBool: return std::hash<bool>{}(AsBool());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull: return "NULL";
    case DataType::kInt: return std::to_string(AsInt());
    case DataType::kDouble: {
      // Shortest round-trip formatting: try increasing precision until the
      // printed form parses back to the same double, so 0.1 prints as "0.1"
      // but no value silently loses precision the way %g (6 digits) did.
      double d = AsDouble();
      char buf[40];
      for (int prec : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d) break;  // NaN falls through
      }
      return buf;
    }
    case DataType::kString: return AsString();
    case DataType::kBool: return AsBool() ? "true" : "false";
  }
  return "?";
}

Result<Value> Value::CastTo(DataType target) const {
  if (is_null()) return Value::Null();
  if (type() == target) return *this;
  switch (target) {
    case DataType::kInt:
      switch (type()) {
        case DataType::kDouble: {
          // Truncating casts of NaN or out-of-range doubles are undefined
          // behavior; reject them instead.
          double d = AsDouble();
          if (std::isnan(d) || d >= kInt64Bound || d < -kInt64Bound) {
            return Status::TypeError("DOUBLE value " + ToString() +
                                     " out of INTEGER range");
          }
          return Value(static_cast<int64_t>(d));
        }
        case DataType::kString: {
          ASSIGN_OR_RETURN(int64_t v, ParseInt64(AsString()));
          return Value(v);
        }
        case DataType::kBool: return Value(static_cast<int64_t>(AsBool()));
        default: break;
      }
      break;
    case DataType::kDouble:
      switch (type()) {
        case DataType::kInt: return Value(static_cast<double>(AsInt()));
        case DataType::kString: {
          ASSIGN_OR_RETURN(double v, ParseDouble(AsString()));
          return Value(v);
        }
        default: break;
      }
      break;
    case DataType::kString:
      return Value(ToString());
    case DataType::kBool:
      if (type() == DataType::kInt) return Value(AsInt() != 0);
      break;
    default:
      break;
  }
  return Status::TypeError(std::string("cannot cast ") + DataTypeName(type()) +
                           " to " + DataTypeName(target));
}

size_t Value::FootprintBytes() const {
  size_t base = sizeof(Value);
  if (type() == DataType::kString) base += AsString().capacity();
  return base;
}

size_t HashRow(const Row& row) {
  // Position-mixing combiner (boost::hash_combine style): the running hash
  // is sheared into the incoming value, so permuted rows — and rows that
  // differ only by shifting a value across columns — hash differently.
  size_t h = row.size();
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace xmlrdb::rdb
