/// \file report.hpp
/// \brief The JSON writer and file sink behind every machine-readable
/// output.
///
/// Darmont's benchmark-methodology line of work stresses reproducible
/// protocols: a result is only comparable when the parameters that
/// produced it travel with it.  `voodb run` writes each scenario's
/// `BENCH_<name>.json` (its seed, replications, transactions and threads
/// beside every series) through `JsonWriter`; the metric snapshot and the
/// profiler's Chrome trace use it too.  `WriteFile` puts any of them (and
/// the span tracer's Perfetto export) on disk and fails loudly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace voodb::exp {

/// A minimal JSON emitter (objects, arrays, scalars; string escaping;
/// NaN/Inf serialize as null).  No external dependencies.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Object key; must be followed by a value or Begin*.
  JsonWriter& Key(const std::string& name);
  JsonWriter& Value(const std::string& v);
  JsonWriter& Value(const char* v);
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(bool v);
  JsonWriter& Null();

  const std::string& str() const { return out_; }

  static std::string Escape(const std::string& s);

 private:
  void Separate();
  std::string out_;
  // true = a value was already emitted at this nesting depth.
  std::vector<bool> comma_stack_{false};
  bool after_key_ = false;
};

/// Writes `content` to `path` (throws voodb::util::Error on failure).
void WriteFile(const std::string& path, const std::string& content);

}  // namespace voodb::exp
