/**
 * @file
 * The BENCH_*.json writer (bench/bench_json.hpp): exact output text
 * for every value kind and nesting shape and for one "benchmarks"
 * row, and the overload set that keeps pointers and stray integer
 * types from compiling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"

namespace {

/** True when Json::field accepts a value of type @p V. */
template <typename V>
concept Writable = requires(authbench::Json &j, V v) { j.field("k", v); };

static_assert(Writable<const std::string &>);
static_assert(Writable<const char (&)[6]>);
static_assert(Writable<double>);
static_assert(Writable<std::uint64_t>);
static_assert(Writable<bool>);
// A pointer would otherwise convert to bool and print `true`.
static_assert(!Writable<const char *>);
static_assert(!Writable<char *>);
static_assert(!Writable<const void *>);
// No silent pick among the numeric overloads.
static_assert(!Writable<int>);
static_assert(!Writable<unsigned>);
static_assert(!Writable<float>);

TEST(BenchJson, WritesEveryFieldKindExactly)
{
    std::ostringstream os;
    authbench::Json j(os);
    j.open();
    j.field("schema", "fixture-v1");
    j.field("label", std::string("w1x"));
    j.field("quick", true);
    j.field("ratio", 1.0 / 3.0);
    j.field("ops", std::uint64_t(42));
    j.openArray("rows");
    j.openObject();
    j.field("name", "a");
    j.openArray("grid");
    j.openObject();
    j.openArray("cells");
    j.openObject();
    j.field("x", 0.125);
    j.closeObject();
    j.closeArray();
    j.closeObject();
    j.closeArray();
    j.closeObject();
    j.openObject();
    j.field("name", "b");
    j.closeObject();
    j.closeArray();
    j.openObject("gates");
    j.field("held", true);
    j.field("broke", false);
    j.closeObject();
    j.close();

    EXPECT_EQ(os.str(), R"({
  "schema": "fixture-v1",
  "label": "w1x",
  "quick": true,
  "ratio": 0.333333333333,
  "ops": 42,
  "rows": [
    {
      "name": "a",
      "grid": [
        {
          "cells": [
            {
              "x": 0.125
            }
          ]
        }
      ]
    },
    {
      "name": "b"
    }
  ],
  "gates": {
    "held": true,
    "broke": false
  }
}
)");
}

TEST(BenchJson, GatesAreBoolsInNameOrder)
{
    std::ostringstream os;
    authbench::Json j(os);
    j.open();
    authbench::writeGates(j, {{"z_last", true}, {"a_first", false}});
    j.close();
    EXPECT_EQ(os.str(), R"({
  "gates": {
    "a_first": false,
    "z_last": true
  }
}
)");
}

TEST(BenchJson, SeriesRowIsExact)
{
    // Five samples of 4 ops each: 20 ops in 1500 ns; per-op p50 is
    // the middle sample (300 ns / 4), p99 the 4th of 5 (400 ns / 4).
    const authbench::Series s = authbench::makeSeries(
        "crc32_4kib", "scalar", 4, {500, 100, 400, 200, 300});
    std::ostringstream os;
    authbench::Json j(os);
    j.open();
    j.openArray("benchmarks");
    authbench::writeSeries(j, s);
    j.closeArray();
    j.close();
    EXPECT_EQ(os.str(), R"({
  "benchmarks": [
    {
      "name": "crc32_4kib",
      "simd": "scalar",
      "ops": 20,
      "ops_per_s": 13333333.3333,
      "p50_ns": 75,
      "p99_ns": 100
    }
  ]
}
)");
}

TEST(BenchJson, PercentileIsNearestRankBelow)
{
    std::vector<double> samples{5, 1, 4, 2, 3};
    EXPECT_EQ(authbench::percentile(samples, 0.0), 1.0);
    EXPECT_EQ(authbench::percentile(samples, 0.5), 3.0);
    EXPECT_EQ(authbench::percentile(samples, 0.99), 4.0);
    EXPECT_EQ(authbench::percentile(samples, 1.0), 5.0);
    std::vector<double> none;
    EXPECT_EQ(authbench::percentile(none, 0.5), 0.0);
}

} // namespace
