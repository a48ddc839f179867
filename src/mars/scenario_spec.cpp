#include "mars/scenario_spec.hpp"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "obs/json_reader.hpp"
#include "obs/json_writer.hpp"
#include "telemetry/backend.hpp"
#include "telemetry/path_id.hpp"

namespace mars {

namespace {

// Every spec field is one row of a field table (spec_table() and
// fault_table() below): its dotted JSON path, the ScenarioSpec member it
// lives in, an optional bound, and its lowering into ScenarioConfig (or a
// faults::FaultEvent). The member's C++ type is the row's JSON type — a
// number, an integer of that width, a string, or a bool — so parsing,
// serialization, lowering, unknown-key rejection and the spec-level checks
// of validate() are all loops over the same rows.

using obs::JsonValue;
using Errors = std::vector<std::string>;
using Fault = ScenarioSpec::Fault;

/// The member (or config target) a row reads and writes. A generic lambda,
/// so one accessor serves both the const and the mutable owner.
#define AT(member) [](auto& owner) -> auto& { return owner.member; }

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw std::invalid_argument(path + ": " + message);
}

std::string join(const std::vector<std::string_view>& names) {
  std::string out;
  for (const std::string_view name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::string shortest(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- one JSON value <-> one member, by the member's type ----

template <class T>
bool is_set(const T&) {
  return true;
}
template <class T>
bool is_set(const std::optional<T>& v) {
  return v.has_value();
}
template <class T>
const T& value_of(const T& v) {
  return v;
}
template <class T>
const T& value_of(const std::optional<T>& v) {
  return *v;
}
template <class T>
T& assign(T& v) {
  return v;
}
template <class T>
T& assign(std::optional<T>& v) {
  return v.emplace();
}

void read(const JsonValue& v, const std::string& at, double& out) {
  if (!v.is_number()) {
    fail(at, std::string("expected a number, got ") + v.kind_name());
  }
  out = v.as_number();
}

void read(const JsonValue& v, const std::string& at, std::string& out) {
  if (!v.is_string()) {
    fail(at, std::string("expected a string, got ") + v.kind_name());
  }
  out = v.as_string();
}

void read(const JsonValue& v, const std::string& at, bool& out) {
  if (!v.is_bool()) {
    fail(at, std::string("expected a boolean, got ") + v.kind_name());
  }
  out = v.as_bool();
}

/// Integers are checked against the type they narrow to: a value that
/// does not fit is an error, never a silent wrap-around.
template <std::integral T>
  requires(!std::same_as<T, bool>)
void read(const JsonValue& v, const std::string& at, T& out) {
  constexpr bool kSigned = std::is_signed_v<T>;
  if (!v.is_number()) {
    fail(at, std::string(kSigned ? "expected an integer, got "
                                 : "expected an unsigned integer, got ") +
                 v.kind_name());
  }
  const double d = v.as_number();
  if (d != std::floor(d) || (!kSigned && d < 0)) {
    fail(at,
         kSigned ? "expected an integer" : "expected a non-negative integer");
  }
  // Both ends of T's range are powers of two, exact in a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (d >= limit || d < (kSigned ? -limit : 0.0)) {
    fail(at, "expected an integer in [" +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "] (got " +
                 shortest(d) + ")");
  }
  out = static_cast<T>(d);
}

void read(const JsonValue& v, const std::string& at,
          std::vector<std::string>& out) {
  if (!v.is_array()) fail(at, "expected an array");
  for (std::size_t i = 0; i < v.size(); ++i) {
    read(v.at(i), at + "[" + std::to_string(i) + "]", out.emplace_back());
  }
}

void read(const JsonValue& v, const std::string& at, std::vector<Fault>& out);

void write(obs::JsonWriter& w, double v) { w.value(v); }
void write(obs::JsonWriter& w, bool v) { w.value(v); }
void write(obs::JsonWriter& w, const std::string& v) { w.value(v); }

template <std::integral T>
  requires(!std::same_as<T, bool>)
void write(obs::JsonWriter& w, T v) {
  if constexpr (std::is_signed_v<T>) {
    w.value(static_cast<std::int64_t>(v));
  } else {
    w.value(static_cast<std::uint64_t>(v));
  }
}

void write(obs::JsonWriter& w, const std::vector<std::string>& v) {
  w.begin_array();
  for (const auto& s : v) w.value(s);
  w.end_array();
}

void write(obs::JsonWriter& w, const std::vector<Fault>& faults);

// ---- bounds: the spec-level range checks of validate() ----

struct Bound {
  enum class Kind { kNone, kRange, kPositive, kNonzero };
  Kind kind = Kind::kNone;
  double lo = 0.0, hi = 0.0;

  template <class V>
  void check(const V& v, const std::string& at, Errors& errors) const {
    if constexpr (std::is_arithmetic_v<V>) {
      const double d = static_cast<double>(v);
      switch (kind) {
        case Kind::kNone: break;
        case Kind::kRange:
          if (d < lo || d > hi) {
            errors.push_back(at + " must be in [" + shortest(lo) + ", " +
                             shortest(hi) + "] (got " + std::to_string(v) +
                             ")");
          }
          break;
        case Kind::kPositive:
          if (d <= 0.0) {
            errors.push_back(at + " must be positive (got " +
                             std::to_string(v) + ")");
          }
          break;
        case Kind::kNonzero:
          if (d == 0.0) errors.push_back(at + " must be nonzero");
          break;
      }
    }
  }
};

Bound in_range(double lo, double hi) {
  return {Bound::Kind::kRange, lo, hi};
}
constexpr Bound kPositive{Bound::Kind::kPositive};
constexpr Bound kNonzero{Bound::Kind::kNonzero};

// ---- lowerings: how a set field lands in the config ----

struct NoCheck {
  template <class V>
  void check(const V&, const std::string&, Errors&) const {}
};

/// No lowering: the field only labels the spec.
struct Ignore : NoCheck {
  template <class V, class Target>
  void operator()(const V&, const std::string&, Target&) const {}
};

/// Plain copy into a config member.
template <class Dst>
struct Copy : NoCheck {
  Dst dst;
  template <class V, class Target>
  void operator()(const V& v, const std::string&, Target& target) const {
    auto& member = dst(target);
    member = static_cast<std::remove_cvref_t<decltype(member)>>(v);
  }
};
template <class Dst>
Copy<Dst> copy(Dst dst) {
  return {{}, dst};
}

/// Unit conversion into a sim::Time member (s, ms or µs to ns).
template <class Dst>
struct Nanos : NoCheck {
  Dst dst;
  sim::Time unit;
  template <class Target>
  void operator()(double v, const std::string&, Target& target) const {
    dst(target) = static_cast<sim::Time>(
        std::llround(v * static_cast<double>(unit)));
  }
};
template <class Dst>
Nanos<Dst> nanos(Dst dst, sim::Time unit) {
  return {{}, dst, unit};
}

/// A registry name resolved to its enum value.
template <class E>
struct Names {
  const char* noun;
  std::optional<E> (*from_name)(std::string_view);
  std::string (*known)();
  std::string (*suggest)(std::string_view) = nullptr;

  [[nodiscard]] std::string unknown(const std::string& name,
                                    const std::string& at) const {
    std::string msg = at + ": unknown " + noun + " '" + name +
                      "' (known: " + known() + ")";
    if (suggest != nullptr) {
      const std::string hint = suggest(name);
      if (!hint.empty()) msg += "; did you mean '" + hint + "'?";
    }
    return msg;
  }
  /// The value for `name`; throws the path-named error when unknown.
  [[nodiscard]] E get(const std::string& name, const std::string& at) const {
    const auto value = from_name(name);
    if (!value) throw std::invalid_argument(unknown(name, at));
    return *value;
  }
};

const Names<telemetry::BackendKind> kBackends{
    "telemetry backend", telemetry::backend_from_name,
    [] {
      const auto& names = telemetry::known_backend_names();
      return join({names.begin(), names.end()});
    },
    telemetry::suggest_backend};
const Names<telemetry::HashKind> kHashes{
    "path_id hash", telemetry::hash_from_name,
    [] { return std::string("crc16, crc32"); }};
const Names<obs::LogLevel> kLogLevels{
    "log level", obs::level_from_name,
    [] { return std::string("debug, info, warn, error"); }};
const Names<faults::FaultKind> kFaultKinds{
    "fault kind", faults::kind_from_name,
    [] { return std::string(faults::known_kind_names()); }};

template <class Dst, class E>
struct Lookup {
  Dst dst;
  const Names<E>* names;
  void check(const std::string& v, const std::string& at,
             Errors& errors) const {
    if (!names->from_name(v)) errors.push_back(names->unknown(v, at));
  }
  template <class Target>
  void operator()(const std::string& v, const std::string& at,
                  Target& target) const {
    dst(target) = names->get(v, at);
  }
};
template <class Dst, class E>
Lookup<Dst, E> lookup(Dst dst, const Names<E>& names) {
  return {dst, &names};
}

// ---- the table ----

template <class Owner, class Target>
class Table {
 public:
  template <class Get, class Lower = Ignore>
  void add(std::string_view path, Get get, Lower lowering = {},
           Bound bound = {}) {
    rows_.push_back(Row{
        .path = path,
        .is_set = [get](const Owner& o) { return is_set(get(o)); },
        .read =
            [get](Owner& o, const JsonValue& v, const std::string& at) {
              read(v, at, assign(get(o)));
            },
        .write =
            [get](const Owner& o, obs::JsonWriter& w) {
              write(w, value_of(get(o)));
            },
        .check =
            [get, lowering, bound](const Owner& o, const std::string& at,
                                   Errors& errors) {
              if (!is_set(get(o))) return;
              bound.check(value_of(get(o)), at, errors);
              lowering.check(value_of(get(o)), at, errors);
            },
        .lower =
            [get, lowering](const Owner& o, const std::string& at,
                            Target& t) {
              if (is_set(get(o))) lowering(value_of(get(o)), at, t);
            },
    });
  }

  /// Parse the owner from its JSON object at `at` (e.g. "spec").
  [[nodiscard]] Owner parse(const JsonValue& object,
                            const std::string& at) const {
    reject_unknown_keys(object, at, "");
    Owner owner;
    for (const Row& row : rows_) {
      const JsonValue* v = &object;
      for (const std::string_view key : split(row.path)) {
        v = v->find(key);
        if (v == nullptr) break;
      }
      if (v != nullptr) row.read(owner, *v, at + "." + std::string(row.path));
    }
    return owner;
  }

  /// Write the owner's set fields as one JSON object. Rows sharing a
  /// parent object are adjacent in the table, so each object opens once.
  void serialize(obs::JsonWriter& w, const Owner& owner) const {
    w.begin_object();
    std::vector<std::string_view> open;  // nested objects, outermost first
    for (const Row& row : rows_) {
      if (!row.is_set(owner)) continue;
      std::vector<std::string_view> parents = split(row.path);
      const std::string_view key = parents.back();
      parents.pop_back();
      std::size_t common = 0;
      while (common < open.size() && common < parents.size() &&
             open[common] == parents[common]) {
        ++common;
      }
      for (; open.size() > common; open.pop_back()) w.end_object();
      while (open.size() < parents.size()) {
        open.push_back(parents[open.size()]);
        w.key(open.back()).begin_object();
      }
      w.key(key);
      row.write(owner, w);
    }
    for (; !open.empty(); open.pop_back()) w.end_object();
    w.end_object();
  }

  /// The spec-level checks: every set row's bound and name lookup.
  void check(const Owner& owner, const std::string& at,
             Errors& errors) const {
    for (const Row& row : rows_) {
      row.check(owner, at + "." + std::string(row.path), errors);
    }
  }

  void lower(const Owner& owner, const std::string& at,
             Target& target) const {
    for (const Row& row : rows_) {
      row.lower(owner, at + "." + std::string(row.path), target);
    }
  }

 private:
  struct Row {
    std::string_view path;
    std::function<bool(const Owner&)> is_set;
    std::function<void(Owner&, const JsonValue&, const std::string&)> read;
    std::function<void(const Owner&, obs::JsonWriter&)> write;
    std::function<void(const Owner&, const std::string&, Errors&)> check;
    std::function<void(const Owner&, const std::string&, Target&)> lower;
  };

  static std::vector<std::string_view> split(std::string_view path) {
    std::vector<std::string_view> parts;
    for (std::size_t start = 0; start <= path.size();) {
      const std::size_t dot = std::min(path.find('.', start), path.size());
      parts.push_back(path.substr(start, dot - start));
      start = dot + 1;
    }
    return parts;
  }

  /// Reject keys no row names, recursing into nested objects. `prefix` is
  /// the dotted path of `object` below the owner ("" at the top).
  void reject_unknown_keys(const JsonValue& object, const std::string& at,
                           const std::string& prefix) const {
    if (!object.is_object()) fail(at, "expected an object");
    std::vector<std::string_view> known;  // table order, distinct
    for (const Row& row : rows_) {
      if (!row.path.starts_with(prefix)) continue;
      const std::string_view rest = row.path.substr(prefix.size());
      const std::string_view key = rest.substr(0, rest.find('.'));
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        known.push_back(key);
      }
    }
    for (const auto& [key, value] : object.members()) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        fail(at, "unknown key '" + key + "' (known: " + join(known) + ")");
      }
      const std::string nested = prefix + key + ".";
      if (std::any_of(rows_.begin(), rows_.end(), [&](const Row& row) {
            return row.path.starts_with(nested);
          })) {
        reject_unknown_keys(value, at + "." + key, nested);
      }
    }
  }

  std::vector<Row> rows_;
};

const Table<Fault, faults::FaultEvent>& fault_table() {
  static const auto table = [] {
    Table<Fault, faults::FaultEvent> t;
    t.add("kind", AT(kind), lookup(AT(kind), kFaultKinds));
    t.add("at_s", AT(at_s), nanos(AT(at), sim::kSecond));
    t.add("duration_s", AT(duration_s), nanos(AT(duration), sim::kSecond));
    t.add("target_switch", AT(target_switch), copy(AT(target_switch)));
    t.add("target_port", AT(target_port), copy(AT(target_port)));
    t.add("gray.mean_up_ms", AT(gray.mean_up_ms),
          copy(AT(gray.flap_mean_up_ms)));
    t.add("gray.mean_down_ms", AT(gray.mean_down_ms),
          copy(AT(gray.flap_mean_down_ms)));
    t.add("gray.fanout", AT(gray.fanout), copy(AT(gray.flap_fanout)));
    t.add("gray.loss_fwd", AT(gray.loss_fwd), copy(AT(gray.loss_fwd)));
    t.add("gray.loss_rev", AT(gray.loss_rev), copy(AT(gray.loss_rev)));
    t.add("gray.drain_us_per_pkt", AT(gray.drain_us_per_pkt),
          copy(AT(gray.drain_us_per_pkt)));
    t.add("gray.gate_depth", AT(gray.gate_depth), copy(AT(gray.gate_depth)));
    t.add("gray.gate_delay_ms", AT(gray.gate_delay_ms),
          copy(AT(gray.gate_delay_ms)));
    return t;
  }();
  return table;
}

void read(const JsonValue& v, const std::string& at, std::vector<Fault>& out) {
  if (!v.is_array()) fail(at, "expected an array");
  for (std::size_t i = 0; i < v.size(); ++i) {
    out.push_back(
        fault_table().parse(v.at(i), at + "[" + std::to_string(i) + "]"));
  }
}

void write(obs::JsonWriter& w, const std::vector<Fault>& faults) {
  w.begin_array();
  for (const Fault& fault : faults) fault_table().serialize(w, fault);
  w.end_array();
}

/// The fault list lowers to the config's schedule, one event per fault.
struct Schedule {
  void check(const std::vector<Fault>& faults, const std::string& at,
             Errors& errors) const {
    for (std::size_t i = 0; i < faults.size(); ++i) {
      fault_table().check(faults[i], at + "[" + std::to_string(i) + "]",
                          errors);
    }
  }
  void operator()(const std::vector<Fault>& faults, const std::string& at,
                  ScenarioConfig& cfg) const {
    cfg.faults.events.clear();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      faults::FaultEvent event;
      fault_table().lower(faults[i], at + "[" + std::to_string(i) + "]",
                          event);
      cfg.faults.add(event);
    }
  }
};

const Table<ScenarioSpec, ScenarioConfig>& spec_table() {
  static const auto table = [] {
    Table<ScenarioSpec, ScenarioConfig> t;
    t.add("name", AT(name));
    t.add("topology.name", AT(topology), copy(AT(topology.name)));
    t.add("topology.k", AT(k), copy(AT(topology.k)));
    t.add("topology.leaves", AT(leaves), copy(AT(topology.leaves)));
    t.add("topology.spines", AT(spines), copy(AT(topology.spines)));
    t.add("topology.edge_gbps", AT(edge_gbps), copy(AT(topology.edge_gbps)));
    t.add("topology.core_gbps", AT(core_gbps), copy(AT(topology.core_gbps)));
    t.add("topology.propagation_us", AT(propagation_us),
          nanos(AT(topology.propagation), sim::kMicrosecond));
    t.add("queue_capacity", AT(queue_capacity), copy(AT(queue_capacity)));
    t.add("background.flows", AT(flows), copy(AT(background.flows)));
    t.add("background.pps", AT(pps), copy(AT(background.pps)));
    t.add("background.inter_pod_fraction", AT(inter_pod_fraction),
          copy(AT(background.inter_pod_fraction)));
    t.add("duration_s", AT(duration_s), nanos(AT(duration), sim::kSecond));
    t.add("channel.notification_loss", AT(channel.notification_loss),
          copy(AT(mars.channel.notification_loss)));
    t.add("channel.notification_delay_prob",
          AT(channel.notification_delay_prob),
          copy(AT(mars.channel.notification_delay_prob)));
    t.add("channel.notification_delay_min_s",
          AT(channel.notification_delay_min_s),
          nanos(AT(mars.channel.notification_delay_min), sim::kSecond));
    t.add("channel.notification_delay_max_s",
          AT(channel.notification_delay_max_s),
          nanos(AT(mars.channel.notification_delay_max), sim::kSecond));
    t.add("channel.read_failure", AT(channel.read_failure),
          copy(AT(mars.channel.read_failure)));
    t.add("channel.record_loss", AT(channel.record_loss),
          copy(AT(mars.channel.record_loss)));
    t.add("channel.record_corruption", AT(channel.record_corruption),
          copy(AT(mars.channel.record_corruption)));
    t.add("channel.read_deadline_s", AT(channel.read_deadline_s),
          nanos(AT(mars.controller.read_deadline), sim::kSecond));
    t.add("channel.retry_backoff_s", AT(channel.retry_backoff_s),
          nanos(AT(mars.controller.retry_backoff), sim::kSecond));
    t.add("channel.max_read_retries", AT(channel.max_read_retries),
          copy(AT(mars.controller.max_read_retries)));
    t.add("telemetry.backend", AT(telemetry.backend),
          lookup(AT(mars.pipeline.backend.kind), kBackends));
    t.add("telemetry.ring_capacity", AT(telemetry.ring_capacity),
          copy(AT(mars.pipeline.ring_capacity)));
    t.add("telemetry.int_md.sample_every", AT(telemetry.int_md.sample_every),
          copy(AT(mars.pipeline.backend.int_md.sample_every)));
    t.add("telemetry.int_md.max_hops", AT(telemetry.int_md.max_hops),
          copy(AT(mars.pipeline.backend.int_md.max_hops)));
    t.add("telemetry.histogram.buckets", AT(telemetry.histogram.buckets),
          copy(AT(mars.pipeline.backend.histogram.buckets)));
    t.add("telemetry.histogram.sub_bucket_bits",
          AT(telemetry.histogram.sub_bucket_bits),
          copy(AT(mars.pipeline.backend.histogram.sub_bucket_bits)));
    t.add("telemetry.histogram.tail_latency_ms",
          AT(telemetry.histogram.tail_latency_ms),
          nanos(AT(mars.pipeline.backend.histogram.tail_latency),
                sim::kMillisecond));
    t.add("telemetry.histogram.trigger_enter",
          AT(telemetry.histogram.trigger_enter),
          copy(AT(mars.pipeline.backend.histogram.trigger_enter)));
    t.add("telemetry.histogram.trigger_exit",
          AT(telemetry.histogram.trigger_exit),
          copy(AT(mars.pipeline.backend.histogram.trigger_exit)));
    t.add("telemetry.histogram.digest_capacity",
          AT(telemetry.histogram.digest_capacity),
          copy(AT(mars.pipeline.backend.histogram.digest_capacity)));
    t.add("telemetry.path_id.hash", AT(telemetry.path_id.hash),
          lookup(AT(mars.pipeline.path_id.hash), kHashes));
    t.add("telemetry.path_id.width_bits", AT(telemetry.path_id.width_bits),
          copy(AT(mars.pipeline.path_id.width_bits)), in_range(1, 32));
    t.add("mining.threads", AT(mining.threads),
          copy(AT(mars.rca.mining.threads)));
    t.add("rca.accumulator.enabled", AT(rca.accumulator.enabled),
          copy(AT(mars.rca.accumulator.enabled)));
    t.add("rca.accumulator.half_life_s", AT(rca.accumulator.half_life_s),
          nanos(AT(mars.rca.accumulator.half_life), sim::kSecond));
    t.add("rca.accumulator.max_windows", AT(rca.accumulator.max_windows),
          copy(AT(mars.rca.accumulator.max_windows)));
    t.add("rca.single_window", AT(rca.single_window),
          copy(AT(mars.rca.single_window)));
    t.add("sim.shards", AT(sim.shards), copy(AT(sim.shards)),
          in_range(1, 64));
    t.add("sim.control_latency_s", AT(sim.control_latency_s),
          nanos(AT(sim.control_latency), sim::kSecond));
    t.add("obs.log_level", AT(obs.log_level),
          lookup(AT(obs.log_level), kLogLevels));
    t.add("obs.log_rate_limit_per_s", AT(obs.log_rate_limit_per_s),
          copy(AT(obs.log_rate_limit_per_s)), kPositive);
    t.add("obs.log_rate_limit_burst", AT(obs.log_rate_limit_burst),
          copy(AT(obs.log_rate_limit_burst)), kNonzero);
    t.add("obs.flight_recorder.enabled", AT(obs.flight_recorder.enabled),
          copy(AT(obs.flight_recorder)));
    t.add("obs.flight_recorder.capacity", AT(obs.flight_recorder.capacity),
          copy(AT(obs.flight_capacity)), kNonzero);
    t.add("obs.flight_recorder.confidence_threshold",
          AT(obs.flight_recorder.confidence_threshold),
          copy(AT(obs.flight_confidence_threshold)), in_range(0, 1));
    t.add("obs.provenance", AT(obs.provenance), copy(AT(obs.provenance)));
    t.add("seed", AT(seed), copy(AT(seed)));
    t.add("systems", AT(systems), copy(AT(systems)));
    t.add("faults", AT(faults), Schedule{});
    return t;
  }();
  return table;
}

#undef AT

}  // namespace

ScenarioConfig ScenarioSpec::to_config() const {
  // Start from the tuned paper defaults for the first fault's class, then
  // apply only the fields the spec sets — a minimal spec IS
  // default_scenario.
  const faults::FaultKind first_kind =
      faults.empty() ? faults::FaultKind::kProcessRateDecrease
                     : kFaultKinds.get(faults.front().kind,
                                       "spec.faults[0].kind");
  ScenarioConfig cfg = default_scenario(first_kind, seed);
  spec_table().lower(*this, "spec", cfg);
  return cfg;
}

std::vector<std::string> ScenarioSpec::validate() const {
  std::vector<std::string> errors;
  spec_table().check(*this, "spec", errors);
  if (!errors.empty()) return errors;  // cannot lower the spec yet
  try {
    const auto more = validate_scenario(to_config());
    errors.insert(errors.end(), more.begin(), more.end());
  } catch (const std::exception& e) {
    errors.emplace_back(e.what());
  }
  return errors;
}

std::string to_json(const ScenarioSpec& spec, int indent) {
  std::ostringstream out;
  obs::JsonWriter w(out, indent);
  spec_table().serialize(w, spec);
  return out.str();
}

ScenarioSpec parse_scenario_spec(std::string_view json) {
  obs::JsonValue doc;
  try {
    doc = obs::JsonValue::parse(json);
  } catch (const obs::JsonParseError& e) {
    throw std::invalid_argument(e.what());
  }
  if (!doc.is_object()) {
    throw std::invalid_argument("spec: expected a top-level JSON object");
  }
  return spec_table().parse(doc, "spec");
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot read scenario spec '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_scenario_spec(buffer.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace mars
