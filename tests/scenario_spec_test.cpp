// ScenarioSpec: the JSON surface of the experiment engine. Pins the
// round-trip fixed point (parse(to_json(spec)) == spec), the contract
// that a minimal spec lowers to exactly default_scenario, and the
// rejection paths (unknown keys, unknown names, malformed JSON).

#include "mars/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json_reader.hpp"

namespace mars {
namespace {

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "everything-set";
  spec.topology = "leaf-spine";
  spec.leaves = 6;
  spec.spines = 3;
  spec.edge_gbps = 0.008;
  spec.core_gbps = 0.012;
  spec.propagation_us = 2.5;
  spec.queue_capacity = 2048;
  spec.flows = 24;
  spec.pps = 180.0;
  spec.inter_pod_fraction = 0.5;
  spec.duration_s = 6.0;
  spec.seed = 42;
  spec.systems = std::vector<std::string>{"mars", "syndb"};
  ScenarioSpec::Fault drop;
  drop.kind = "drop";
  drop.at_s = 2.5;
  drop.duration_s = 1.5;
  drop.target_switch = 3;
  drop.target_port = 1;
  spec.faults.push_back(drop);
  ScenarioSpec::Fault delay;
  delay.kind = "delay";
  delay.at_s = 3.0;
  spec.faults.push_back(delay);
  ScenarioSpec::Fault gray;
  gray.kind = "flap";
  gray.at_s = 3.5;
  gray.gray.mean_up_ms = 90.0;
  gray.gray.mean_down_ms = 45.0;
  gray.gray.fanout = 2;
  gray.gray.loss_fwd = 0.3;
  gray.gray.loss_rev = 0.1;
  gray.gray.drain_us_per_pkt = 150.0;
  gray.gray.gate_depth = 12;
  gray.gray.gate_delay_ms = 4.0;
  spec.faults.push_back(gray);
  spec.channel.notification_loss = 0.1;
  spec.channel.notification_delay_prob = 0.05;
  spec.channel.notification_delay_min_s = 0.001;
  spec.channel.notification_delay_max_s = 0.02;
  spec.channel.read_failure = 0.2;
  spec.channel.record_loss = 0.01;
  spec.channel.record_corruption = 0.02;
  spec.channel.read_deadline_s = 0.05;
  spec.channel.retry_backoff_s = 0.01;
  spec.channel.max_read_retries = 3;
  spec.telemetry.backend = "int-md";
  spec.telemetry.ring_capacity = 512;
  spec.telemetry.int_md.sample_every = 2;
  spec.telemetry.int_md.max_hops = 8;
  spec.telemetry.histogram.buckets = 64;
  spec.telemetry.histogram.sub_bucket_bits = 3;
  spec.telemetry.histogram.tail_latency_ms = 12.5;
  spec.telemetry.histogram.trigger_enter = 0.2;
  spec.telemetry.histogram.trigger_exit = 0.05;
  spec.telemetry.histogram.digest_capacity = 256;
  spec.telemetry.path_id.hash = "crc32";
  spec.telemetry.path_id.width_bits = 24;
  spec.obs.log_level = "debug";
  spec.obs.log_rate_limit_per_s = 25.0;
  spec.obs.log_rate_limit_burst = 8;
  spec.obs.flight_recorder.enabled = true;
  spec.obs.flight_recorder.capacity = 128;
  spec.obs.flight_recorder.confidence_threshold = 0.9;
  spec.obs.provenance = true;
  spec.mining.threads = 2;
  spec.rca.accumulator.enabled = true;
  spec.rca.accumulator.half_life_s = 2.0;
  spec.rca.accumulator.max_windows = 16;
  spec.rca.single_window = false;
  spec.sim.shards = 1;
  spec.sim.control_latency_s = 0.002;
  return spec;
}

TEST(ScenarioSpecTest, RoundTripIsFixedPoint) {
  const ScenarioSpec spec = full_spec();
  const std::string json = to_json(spec);
  const ScenarioSpec reparsed = parse_scenario_spec(json);
  EXPECT_EQ(reparsed, spec);
  EXPECT_EQ(to_json(reparsed), json);
}

TEST(ScenarioSpecTest, MinimalSpecRoundTrips) {
  const ScenarioSpec spec;  // all defaults, no faults
  EXPECT_EQ(parse_scenario_spec(to_json(spec)), spec);
}

TEST(ScenarioSpecTest, MinimalSpecLowersToDefaultScenario) {
  ScenarioSpec spec;
  spec.seed = 7;
  spec.faults.emplace_back();  // kind "rate" at 3.0s, nothing pinned

  const ScenarioConfig lowered = spec.to_config();
  const ScenarioConfig reference =
      default_scenario(faults::FaultKind::kProcessRateDecrease, 7);

  EXPECT_EQ(lowered.topology, reference.topology);
  EXPECT_EQ(lowered.faults, reference.faults);
  EXPECT_EQ(lowered.seed, reference.seed);
  EXPECT_EQ(lowered.duration, reference.duration);
  EXPECT_EQ(lowered.queue_capacity, reference.queue_capacity);
  EXPECT_EQ(lowered.background.flows, reference.background.flows);
  EXPECT_EQ(lowered.background.pps, reference.background.pps);
  EXPECT_EQ(lowered.systems, reference.systems);
  EXPECT_EQ(lowered.sample_period, reference.sample_period);
}

TEST(ScenarioSpecTest, FirstFaultKindSelectsTunedDefaults) {
  // default_scenario(kEcmpImbalance) raises the background load; a spec
  // whose first fault is ECMP must inherit that tuning.
  ScenarioSpec spec;
  spec.faults.emplace_back();
  spec.faults.back().kind = "ecmp";
  const ScenarioConfig lowered = spec.to_config();
  const ScenarioConfig reference =
      default_scenario(faults::FaultKind::kEcmpImbalance, 1);
  EXPECT_EQ(lowered.background.flows, reference.background.flows);
  EXPECT_EQ(lowered.background.pps, reference.background.pps);
}

TEST(ScenarioSpecTest, UnknownTopLevelKeyIsRejected) {
  EXPECT_THROW(parse_scenario_spec(R"({"sede": 7})"), std::invalid_argument);
}

TEST(ScenarioSpecTest, UnknownNestedKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"topology": {"kk": 8}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.topology"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("kk"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, MalformedJsonReportsPosition) {
  try {
    (void)parse_scenario_spec("{\"seed\": }");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpecTest, NegativeSeedIsRejected) {
  EXPECT_THROW(parse_scenario_spec(R"({"seed": -1})"), std::invalid_argument);
}

TEST(ScenarioSpecTest, IntegersOutsideTheirTypeAreRejectedWithTheirPath) {
  // Each value fits a JSON number but not the member it narrows to; the
  // parse must fail naming the field instead of wrapping or truncating.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"telemetry": {"path_id": {"width_bits": 4294967312}}})",
       "spec.telemetry.path_id.width_bits"},
      {R"({"faults": [{"kind": "drop", "target_port": 65537}]})",
       "spec.faults[0].target_port"},
      {R"({"faults": [{"kind": "drop", "target_switch": 4294967300}]})",
       "spec.faults[0].target_switch"},
      {R"({"queue_capacity": 4294967296})", "spec.queue_capacity"},
      {R"({"topology": {"k": 1e10}})", "spec.topology.k"},
      {R"({"sim": {"shards": -3000000000}})", "spec.sim.shards"},
      {R"({"seed": 1e20})", "spec.seed"},
  };
  for (const auto& [json, path] : cases) {
    try {
      (void)parse_scenario_spec(json);
      ADD_FAILURE() << "expected invalid_argument for " << json;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
  // The largest value of each type still parses.
  const ScenarioSpec edge = parse_scenario_spec(
      R"({"queue_capacity": 4294967295, "faults": [{"target_port": 65535}]})");
  EXPECT_EQ(edge.queue_capacity, 4294967295u);
  EXPECT_EQ(edge.faults.at(0).target_port, 65535u);
  // The JSON reader's own integer accessors are range-checked too.
  EXPECT_THROW((void)obs::JsonValue::parse("1e20").as_uint(),
               std::runtime_error);
  EXPECT_THROW((void)obs::JsonValue::parse("-1e19").as_int(),
               std::runtime_error);
  EXPECT_EQ(obs::JsonValue::parse("-9007199254740992").as_int(),
            -9007199254740992LL);
}

TEST(ScenarioSpecTest, ValidateFlagsEveryUnknownName) {
  ScenarioSpec spec;
  spec.topology = "torus";
  spec.systems = std::vector<std::string>{"mars", "netsight"};
  const auto topo_errors = spec.validate();
  ASSERT_FALSE(topo_errors.empty());
  bool topo = false, system = false;
  for (const auto& e : topo_errors) {
    if (e.find("torus") != std::string::npos) topo = true;
    if (e.find("netsight") != std::string::npos) system = true;
  }
  EXPECT_TRUE(topo);
  EXPECT_TRUE(system);

  ScenarioSpec bad_fault;
  bad_fault.faults.emplace_back();
  bad_fault.faults.back().kind = "gremlins";
  const auto fault_errors = bad_fault.validate();
  ASSERT_FALSE(fault_errors.empty());
  EXPECT_NE(fault_errors.front().find("gremlins"), std::string::npos);
  EXPECT_THROW((void)bad_fault.to_config(), std::invalid_argument);
}

TEST(ScenarioSpecTest, LoadRejectsMissingFile) {
  EXPECT_THROW((void)load_scenario_spec("/nonexistent/spec.json"),
               std::invalid_argument);
}

TEST(ScenarioSpecTest, ChannelBlockRoundTripsAndLowers) {
  ScenarioSpec spec;
  spec.channel.notification_loss = 0.2;
  spec.channel.read_failure = 0.1;
  spec.channel.notification_delay_prob = 0.05;
  spec.channel.notification_delay_max_s = 0.08;
  spec.channel.max_read_retries = 5;
  const ScenarioSpec reparsed = parse_scenario_spec(to_json(spec));
  EXPECT_EQ(reparsed, spec);

  const ScenarioConfig cfg = spec.to_config();
  EXPECT_DOUBLE_EQ(cfg.mars.channel.notification_loss, 0.2);
  EXPECT_DOUBLE_EQ(cfg.mars.channel.read_failure, 0.1);
  EXPECT_EQ(cfg.mars.channel.notification_delay_max,
            80 * sim::kMillisecond);
  EXPECT_EQ(cfg.mars.controller.max_read_retries, 5u);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(ScenarioSpecTest, SpecWithoutChannelBlockRunsPerfectChannel) {
  const ScenarioConfig cfg = parse_scenario_spec("{}").to_config();
  EXPECT_TRUE(cfg.mars.channel.perfect());
}

TEST(ScenarioSpecTest, MiningThreadsRoundTripsAndLowers) {
  ScenarioSpec spec;
  spec.mining.threads = 4;
  const ScenarioSpec reparsed = parse_scenario_spec(to_json(spec));
  EXPECT_EQ(reparsed, spec);

  const ScenarioConfig cfg = spec.to_config();
  EXPECT_EQ(cfg.mars.rca.mining.threads, 4u);
  EXPECT_TRUE(spec.validate().empty());

  // Unset keeps the sequential default (threads = 1, no pool).
  EXPECT_EQ(parse_scenario_spec("{}").to_config().mars.rca.mining.threads,
            1u);
}

TEST(ScenarioSpecTest, MiningThreadsOutOfRangeIsRejected) {
  ScenarioSpec spec;
  spec.mining.threads = 0;
  auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("mars.rca.mining.threads"),
            std::string::npos);

  spec.mining.threads = 65;
  errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("[1, 64]"), std::string::npos);
}

TEST(ScenarioSpecTest, MiningUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"mining": {"thread_count": 4}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.mining"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("thread_count"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, ChannelUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"channel": {"notif_loss": 0.5}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.channel"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("notif_loss"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, ChannelProbabilityOutOfRangeIsPathNamed) {
  ScenarioSpec spec;
  spec.channel.notification_loss = 1.5;
  spec.channel.record_corruption = -0.1;
  const auto errors = spec.validate();
  ASSERT_FALSE(errors.empty());
  bool loss = false, corruption = false;
  for (const auto& e : errors) {
    if (e.find("mars.channel.notification_loss") != std::string::npos) {
      loss = true;
    }
    if (e.find("mars.channel.record_corruption") != std::string::npos) {
      corruption = true;
    }
  }
  EXPECT_TRUE(loss);
  EXPECT_TRUE(corruption);
}

TEST(ScenarioSpecTest, ChannelNegativeDelaysAndDeadlinesAreRejected) {
  ScenarioSpec spec;
  spec.channel.notification_delay_min_s = -0.01;
  spec.channel.read_deadline_s = -1.0;
  spec.channel.retry_backoff_s = -0.5;
  const auto errors = spec.validate();
  bool delay = false, deadline = false, backoff = false;
  for (const auto& e : errors) {
    if (e.find("notification_delay_min") != std::string::npos) delay = true;
    if (e.find("read_deadline") != std::string::npos) deadline = true;
    if (e.find("retry_backoff") != std::string::npos) backoff = true;
  }
  EXPECT_TRUE(delay);
  EXPECT_TRUE(deadline);
  EXPECT_TRUE(backoff);
}

TEST(ScenarioSpecTest, ChannelRetryCountBoundIsEnforced) {
  ScenarioSpec spec;
  spec.channel.max_read_retries = 99;
  const auto errors = spec.validate();
  ASSERT_FALSE(errors.empty());
  bool found = false;
  for (const auto& e : errors) {
    if (e.find("max_read_retries") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ScenarioSpecTest, DelayMaxBelowMinIsRejected) {
  ScenarioSpec spec;
  spec.channel.notification_delay_min_s = 0.05;
  spec.channel.notification_delay_max_s = 0.01;
  const auto errors = spec.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("notification_delay_max"),
            std::string::npos);
}

TEST(ScenarioSpecTest, TelemetryFaultKindsParseAndValidate) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "faults": [
      {"kind": "rate", "at_s": 3.0},
      {"kind": "notifloss", "at_s": 3.0, "duration_s": 1.0},
      {"kind": "read-outage", "at_s": 3.5, "duration_s": 0.5}
    ]
  })");
  EXPECT_TRUE(spec.validate().empty());
  const ScenarioConfig cfg = spec.to_config();
  ASSERT_EQ(cfg.faults.size(), 3u);
  EXPECT_EQ(cfg.faults.events[1].kind, faults::FaultKind::kNotificationLoss);
  EXPECT_EQ(cfg.faults.events[2].kind, faults::FaultKind::kReadOutage);

  // A pinned switch on a telemetry fault is a schedule error.
  ScenarioSpec pinned;
  pinned.faults.emplace_back();
  pinned.faults.back().kind = "notifloss";
  pinned.faults.back().target_switch = 3;
  const auto errors = pinned.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("control channel"), std::string::npos);
}

TEST(ScenarioSpecTest, ObsBlockRoundTripsAndLowers) {
  ScenarioSpec spec;
  spec.obs.log_level = "warn";
  spec.obs.log_rate_limit_per_s = 10.0;
  spec.obs.log_rate_limit_burst = 4;
  spec.obs.flight_recorder.enabled = true;
  spec.obs.flight_recorder.capacity = 64;
  spec.obs.flight_recorder.confidence_threshold = 0.95;
  spec.obs.provenance = true;
  const ScenarioSpec reparsed = parse_scenario_spec(to_json(spec));
  EXPECT_EQ(reparsed, spec);
  EXPECT_TRUE(spec.validate().empty());

  const ScenarioConfig cfg = spec.to_config();
  EXPECT_EQ(cfg.obs.log_level, obs::LogLevel::kWarn);
  EXPECT_DOUBLE_EQ(cfg.obs.log_rate_limit_per_s, 10.0);
  EXPECT_EQ(cfg.obs.log_rate_limit_burst, 4u);
  EXPECT_TRUE(cfg.obs.flight_recorder);
  EXPECT_EQ(cfg.obs.flight_capacity, 64u);
  EXPECT_DOUBLE_EQ(cfg.obs.flight_confidence_threshold, 0.95);
  EXPECT_TRUE(cfg.obs.provenance);

  // Unset keeps the inert defaults.
  const ScenarioConfig plain = parse_scenario_spec("{}").to_config();
  EXPECT_EQ(plain.obs.log_level, obs::LogLevel::kInfo);
  EXPECT_FALSE(plain.obs.flight_recorder);
  EXPECT_FALSE(plain.obs.provenance);
}

TEST(ScenarioSpecTest, ObsUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"obs": {"loglevel": "info"}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.obs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("loglevel"), std::string::npos);
  }
  try {
    (void)parse_scenario_spec(
        R"({"obs": {"flight_recorder": {"cap": 64}}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.obs.flight_recorder"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, ObsUnknownLogLevelIsPathNamed) {
  ScenarioSpec spec;
  spec.obs.log_level = "verbose";
  const auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("spec.obs.log_level"), std::string::npos);
  EXPECT_NE(errors.front().find("verbose"), std::string::npos);
  EXPECT_THROW((void)spec.to_config(), std::invalid_argument);
}

TEST(ScenarioSpecTest, ObsOutOfRangeValuesArePathNamed) {
  ScenarioSpec spec;
  spec.obs.log_rate_limit_per_s = -1.0;
  spec.obs.log_rate_limit_burst = 0;
  spec.obs.flight_recorder.capacity = 0;
  spec.obs.flight_recorder.confidence_threshold = 1.5;
  const auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 4u);
  const char* expected[] = {
      "spec.obs.log_rate_limit_per_s",
      "spec.obs.log_rate_limit_burst",
      "spec.obs.flight_recorder.capacity",
      "spec.obs.flight_recorder.confidence_threshold",
  };
  for (const char* path : expected) {
    bool found = false;
    for (const auto& e : errors) {
      if (e.find(path) != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << "no error names " << path;
  }
}

TEST(ScenarioSpecTest, TelemetryBlockRoundTripsAndLowers) {
  ScenarioSpec spec;
  spec.telemetry.backend = "histogram";
  spec.telemetry.ring_capacity = 256;
  spec.telemetry.histogram.buckets = 48;
  spec.telemetry.histogram.tail_latency_ms = 12.5;
  spec.telemetry.histogram.trigger_enter = 0.25;
  const ScenarioSpec reparsed = parse_scenario_spec(to_json(spec));
  EXPECT_EQ(reparsed, spec);

  const ScenarioConfig cfg = spec.to_config();
  EXPECT_EQ(cfg.mars.pipeline.backend.kind,
            telemetry::BackendKind::kHistogram);
  EXPECT_EQ(cfg.mars.pipeline.ring_capacity, 256u);
  EXPECT_EQ(cfg.mars.pipeline.backend.histogram.buckets, 48u);
  EXPECT_EQ(cfg.mars.pipeline.backend.histogram.tail_latency,
            12'500 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(cfg.mars.pipeline.backend.histogram.trigger_enter, 0.25);
  EXPECT_TRUE(spec.validate().empty());

  // Unset keeps the paper's postcard rings.
  EXPECT_EQ(parse_scenario_spec("{}").to_config().mars.pipeline.backend.kind,
            telemetry::BackendKind::kPostcard);
}

TEST(ScenarioSpecTest, TelemetryPathIdRoundTripsAndLowers) {
  ScenarioSpec spec;
  spec.telemetry.path_id.hash = "crc32";
  spec.telemetry.path_id.width_bits = 24;
  const ScenarioSpec reparsed = parse_scenario_spec(to_json(spec));
  EXPECT_EQ(reparsed, spec);

  const ScenarioConfig cfg = spec.to_config();
  EXPECT_EQ(cfg.mars.pipeline.path_id.hash, telemetry::HashKind::kCrc32);
  EXPECT_EQ(cfg.mars.pipeline.path_id.width_bits, 24u);
  EXPECT_TRUE(spec.validate().empty());

  // Unset keeps the paper default (crc16 / 16 bits).
  const ScenarioConfig plain = parse_scenario_spec("{}").to_config();
  EXPECT_EQ(plain.mars.pipeline.path_id.hash, telemetry::HashKind::kCrc16);
  EXPECT_EQ(plain.mars.pipeline.path_id.width_bits, 16u);
}

TEST(ScenarioSpecTest, TelemetryPathIdUnknownHashIsPathNamed) {
  ScenarioSpec spec;
  spec.telemetry.path_id.hash = "crc64";
  const auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("spec.telemetry.path_id.hash"),
            std::string::npos);
  EXPECT_NE(errors.front().find("crc16, crc32"), std::string::npos);
  EXPECT_THROW((void)spec.to_config(), std::invalid_argument);
}

TEST(ScenarioSpecTest, TelemetryPathIdWidthOutOfRangeIsRejected) {
  for (const std::uint32_t width : {0u, 33u}) {
    ScenarioSpec spec;
    spec.telemetry.path_id.width_bits = width;
    const auto errors = spec.validate();
    ASSERT_FALSE(errors.empty()) << "width " << width;
    EXPECT_NE(errors.front().find("spec.telemetry.path_id.width_bits"),
              std::string::npos);
  }
}

TEST(ScenarioSpecTest, TelemetryPathIdUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(
        R"({"telemetry": {"path_id": {"width": 16}}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.telemetry.path_id"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("width"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, TelemetryIntMdFieldsLower) {
  ScenarioSpec spec;
  spec.telemetry.backend = "int-md";
  spec.telemetry.int_md.sample_every = 4;
  spec.telemetry.int_md.max_hops = 6;
  const ScenarioConfig cfg = spec.to_config();
  EXPECT_EQ(cfg.mars.pipeline.backend.kind, telemetry::BackendKind::kIntMd);
  EXPECT_EQ(cfg.mars.pipeline.backend.int_md.sample_every, 4u);
  EXPECT_EQ(cfg.mars.pipeline.backend.int_md.max_hops, 6u);
  EXPECT_TRUE(spec.validate().empty());
}

TEST(ScenarioSpecTest, TelemetryUnknownBackendIsPathNamedWithSuggestion) {
  ScenarioSpec spec;
  spec.telemetry.backend = "histgram";
  const auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("spec.telemetry.backend"),
            std::string::npos);
  EXPECT_NE(errors.front().find("did you mean 'histogram'"),
            std::string::npos);
  EXPECT_THROW((void)spec.to_config(), std::invalid_argument);
}

TEST(ScenarioSpecTest, TelemetryUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(
        R"({"telemetry": {"histogram": {"bucketz": 10}}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.telemetry.histogram"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bucketz"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, TelemetryOutOfRangeValuesArePathNamed) {
  ScenarioSpec spec;
  spec.telemetry.ring_capacity = 0;
  spec.telemetry.int_md.sample_every = 0;
  spec.telemetry.histogram.buckets = 4;        // below the [8, 4096] floor
  spec.telemetry.histogram.sub_bucket_bits = 12;
  spec.telemetry.histogram.tail_latency_ms = -1.0;
  const auto errors = spec.validate();
  const char* expected[] = {
      "telemetry.ring_capacity",
      "telemetry.int_md.sample_every",
      "telemetry.histogram.buckets",
      "telemetry.histogram.sub_bucket_bits",
      "telemetry.histogram.tail_latency_ms",
  };
  EXPECT_GE(errors.size(), std::size(expected));
  for (const char* path : expected) {
    bool found = false;
    for (const auto& e : errors) {
      if (e.find(path) != std::string::npos) found = true;
    }
    EXPECT_TRUE(found) << "no error names " << path;
  }
}

TEST(ScenarioSpecTest, TelemetryTriggerBandMustBeOrdered) {
  ScenarioSpec spec;
  spec.telemetry.histogram.trigger_enter = 0.05;
  spec.telemetry.histogram.trigger_exit = 0.2;  // exit above enter: no band
  const auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("trigger_exit"), std::string::npos);
}

TEST(ScenarioSpecTest, GrayFaultBlockRoundTripsAndLowers) {
  ScenarioSpec spec;
  spec.faults.emplace_back();
  spec.faults.back().kind = "flap";
  spec.faults.back().at_s = 2.0;
  spec.faults.back().gray.mean_up_ms = 90.0;
  spec.faults.back().gray.mean_down_ms = 45.0;
  spec.faults.back().gray.fanout = 3;
  spec.rca.accumulator.enabled = true;
  spec.rca.accumulator.half_life_s = 1.5;
  EXPECT_EQ(parse_scenario_spec(to_json(spec)), spec);
  EXPECT_TRUE(spec.validate().empty());
  const ScenarioConfig cfg = spec.to_config();
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(cfg.faults.events.front().kind, faults::FaultKind::kLinkFlap);
  EXPECT_EQ(cfg.faults.events.front().gray.flap_mean_up_ms, 90.0);
  EXPECT_EQ(cfg.faults.events.front().gray.flap_fanout, 3);
  EXPECT_TRUE(cfg.mars.rca.accumulator.enabled);
  EXPECT_EQ(cfg.mars.rca.accumulator.half_life,
            static_cast<sim::Time>(1.5 * sim::kSecond));
}

TEST(ScenarioSpecTest, GrayUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(
        R"({"faults": [{"kind": "flap", "gray": {"mean_up": 50.0}}]})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.faults[0].gray"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("mean_up"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, GrayOutOfRangeParametersArePathNamed) {
  // Out-of-range flap dwell, loss probability, and gate threshold are
  // each rejected with the event named in the error.
  ScenarioSpec flap;
  flap.faults.emplace_back();
  flap.faults.back().kind = "flap";
  flap.faults.back().gray.mean_down_ms = -10.0;
  auto errors = flap.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("mean_down_ms"), std::string::npos)
      << errors.front();

  ScenarioSpec loss;
  loss.faults.emplace_back();
  loss.faults.back().kind = "asymloss";
  loss.faults.back().gray.loss_fwd = 1.2;
  errors = loss.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("loss_fwd"), std::string::npos);

  ScenarioSpec gate;
  gate.faults.emplace_back();
  gate.faults.back().kind = "gateddelay";
  gate.faults.back().gray.gate_depth = 1;
  errors = gate.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("gate_depth"), std::string::npos);

  // A gray block on a clean kind is an error naming the offending param.
  ScenarioSpec clean;
  clean.faults.emplace_back();
  clean.faults.back().kind = "drop";
  clean.faults.back().gray.drain_us_per_pkt = 200.0;
  errors = clean.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("gray"), std::string::npos);
}

TEST(ScenarioSpecTest, RcaAccumulatorOutOfRangeIsRejected) {
  ScenarioSpec spec;
  spec.rca.accumulator.half_life_s = 0.0;
  auto errors = spec.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("half_life"), std::string::npos)
      << errors.front();

  ScenarioSpec windows;
  windows.rca.accumulator.max_windows = 0;
  errors = windows.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("max_windows"), std::string::npos);
}

TEST(ScenarioSpecTest, RcaUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"rca": {"accum": {"enabled": true}}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.rca"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("accum"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, IntSightIsRejectedPastSixtyFourSwitches) {
  // A k=8 fat-tree has 80 switches; IntSight's per-switch contention
  // bitmap has 64 bits, so ids 64..79 could never be marked.
  ScenarioSpec spec;
  spec.k = 8;
  spec.systems = std::vector<std::string>{"spidermon", "intsight"};
  const auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("systems[1] 'intsight'"), std::string::npos)
      << errors.front();
  EXPECT_NE(errors.front().find("has 80"), std::string::npos)
      << errors.front();
  EXPECT_THROW((void)run_scenario(spec.to_config()), std::invalid_argument);

  spec.systems = std::vector<std::string>{"spidermon"};
  EXPECT_TRUE(spec.validate().empty());
  spec.k = 4;  // 20 switches
  spec.systems = std::vector<std::string>{"intsight"};
  EXPECT_TRUE(spec.validate().empty());
}

TEST(ScenarioSpecTest, ShardedRunsRequirePostcardBackend) {
  ScenarioSpec spec;
  spec.sim.shards = 2;
  spec.systems = std::vector<std::string>{"mars"};
  spec.telemetry.backend = "histogram";
  const auto errors = spec.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("postcard"), std::string::npos)
      << errors.front();
}

}  // namespace
}  // namespace mars
