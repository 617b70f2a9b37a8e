// Shared test fixture: integer micro-apps for the threaded executor whose
// task bodies are exact (64-bit adds/doublings, no floating-point rounding),
// so any thread interleaving must reproduce the sequential interpretation
// bit-for-bit. Used by the executor unit tests (Figure-2 graph) and the
// data-plane stress test (generated grid graphs at any size).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "rapid/graph/task_graph.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/rng.hpp"

namespace rapid::rt::testing {

/// A numeric micro-app over the Figure-2 DAG: every object is one int64
/// counter (8 bytes); T[j] sets d_j := j+1; T[i,j] adds d_i into d_j;
/// update tasks T[j] with reads double d_j. The expected final values are
/// computed by a sequential interpreter, so a threaded run checks protocol
/// correctness end to end (content transfer, versions, sync flags).
struct CounterApp {
  graph::TaskGraph graph = graph::make_paper_figure2_graph();
  sched::Schedule schedule;
  RunPlan plan;
  std::vector<std::int64_t> expected;

  explicit CounterApp(int procs, bool mpo = false) {
    // Resize objects to 8 bytes (the figure uses unit sizes).
    // TaskGraph sizes are fixed at add_data time, so rebuild a scaled graph.
    graph = rebuild_with_size(8, procs);
    const auto assignment = sched::owner_compute_tasks(graph, procs);
    const auto params = machine::MachineParams::cray_t3d(procs);
    schedule = mpo ? sched::schedule_mpo(graph, assignment, procs, params)
                   : sched::schedule_rcp(graph, assignment, procs, params);
    plan = build_run_plan(graph, schedule);
    expected = interpret();
  }

  static graph::TaskGraph rebuild_with_size(std::int64_t bytes, int procs) {
    const graph::TaskGraph proto = graph::make_paper_figure2_graph();
    graph::TaskGraph g;
    for (graph::DataId d = 0; d < proto.num_data(); ++d) {
      g.add_data(proto.data(d).name, bytes,
                 static_cast<graph::ProcId>(d % procs));
    }
    for (graph::TaskId t = 0; t < proto.num_tasks(); ++t) {
      const graph::Task& task = proto.task(t);
      g.add_task(task.name, task.reads, task.writes, task.flops,
                 task.commute_group);
    }
    g.finalize();
    return g;
  }

  /// Sequential reference semantics in program order.
  std::vector<std::int64_t> interpret() const {
    std::vector<std::int64_t> value(11, 0);
    for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
      apply(t, value);
    }
    return value;
  }

  void apply(graph::TaskId t, std::vector<std::int64_t>& value) const {
    const graph::Task& task = graph.task(t);
    const graph::DataId target = task.writes.front();
    if (task.reads.empty()) {
      value[target] = target + 1;  // producer
    } else if (task.reads.front() == target) {
      value[target] *= 2;  // updater T[j]
    } else {
      value[target] += value[task.reads.front()];  // T[i,j]
    }
  }

  ObjectInit make_init() const {
    return [](graph::DataId, std::span<std::byte> buf) {
      std::memset(buf.data(), 0, buf.size());
    };
  }

  TaskBody make_body() const {
    return [this](graph::TaskId t, ObjectResolver& resolver) {
      const graph::Task& task = graph.task(t);
      const graph::DataId target = task.writes.front();
      auto out = resolver.write(target);
      auto* tv = reinterpret_cast<std::int64_t*>(out.data());
      if (task.reads.empty()) {
        *tv = target + 1;
      } else if (task.reads.front() == target) {
        *tv *= 2;
      } else {
        const auto in = resolver.read(task.reads.front());
        *tv += *reinterpret_cast<const std::int64_t*>(in.data());
      }
    };
  }

  RunConfig config(std::int64_t capacity, bool active = true) const {
    RunConfig c;
    c.capacity_per_proc = capacity;
    c.active_memory = active;
    c.params = machine::MachineParams::cray_t3d(plan.num_procs);
    return c;
  }
};

/// Two's-complement wrapping add: grid values double every row, so a long
/// grid would overflow int64 (undefined behaviour) without it.
inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Integer wavefront over a rows x cols grid of int64 counters. Row 0 is
/// produced from constants; row i sums two neighbours of row i-1; every
/// object then gets a doubling update task (same-object read-modify-write,
/// its own epoch). Owners are cyclic, so almost every edge crosses
/// processors and the data plane carries real traffic. Shared by the
/// data-plane stress test and the recovery tests.
struct GridApp {
  graph::TaskGraph graph;
  sched::Schedule schedule;
  RunPlan plan;
  std::vector<std::int64_t> expected;
  std::vector<graph::DataId> objects;
  int rows, cols;

  GridApp(int rows_, int cols_, int procs) : rows(rows_), cols(cols_) {
    objects.reserve(static_cast<std::size_t>(rows) * cols);
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        objects.push_back(graph.add_data(
            "g(" + std::to_string(i) + "," + std::to_string(j) + ")", 8,
            static_cast<graph::ProcId>((i * cols + j) % procs)));
      }
    }
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        const graph::DataId d = at(i, j);
        if (i == 0) {
          graph.add_task("P" + std::to_string(j), {}, {d}, 1.0);
        } else {
          graph.add_task("S(" + std::to_string(i) + "," + std::to_string(j) +
                             ")",
                         {at(i - 1, j), at(i - 1, (j + 1) % cols)}, {d}, 1.0);
        }
        graph.add_task("D(" + std::to_string(i) + "," + std::to_string(j) +
                           ")",
                       {d}, {d}, 1.0);
      }
    }
    graph.finalize();
    const auto assignment = sched::owner_compute_tasks(graph, procs);
    const auto params = machine::MachineParams::cray_t3d(procs);
    schedule = sched::schedule_mpo(graph, assignment, procs, params);
    plan = build_run_plan(graph, schedule);
    expected = interpret();
  }

  graph::DataId at(int i, int j) const {
    return objects[static_cast<std::size_t>(i) * cols + j];
  }

  std::vector<std::int64_t> interpret() const {
    std::vector<std::int64_t> value(objects.size(), 0);
    for (graph::TaskId t = 0; t < graph.num_tasks(); ++t) {
      apply(t, value);
    }
    return value;
  }

  void apply(graph::TaskId t, std::vector<std::int64_t>& value) const {
    const graph::Task& task = graph.task(t);
    const graph::DataId target = task.writes.front();
    if (task.reads.empty()) {
      value[target] = target + 7;  // producer
    } else if (task.reads.size() == 1) {
      value[target] = wrap_add(value[target], value[target]);  // doubling
    } else {
      value[target] = wrap_add(value[task.reads[0]], value[task.reads[1]]);
    }
  }

  ObjectInit make_init() const {
    return [](graph::DataId, std::span<std::byte> buf) {
      std::memset(buf.data(), 0, buf.size());
    };
  }

  /// Task bodies mirror apply(), with a per-task pseudorandom delay of
  /// 0–120 µs so interleavings vary wildly across runs while the result
  /// stays deterministic.
  TaskBody make_body() const {
    return [this](graph::TaskId t, ObjectResolver& resolver) {
      Rng rng(0x9E3779B9u ^ static_cast<std::uint64_t>(t));
      const auto delay = std::chrono::microseconds(rng.next_int(0, 120));
      std::this_thread::sleep_for(delay);
      const graph::Task& task = graph.task(t);
      const graph::DataId target = task.writes.front();
      auto* tv = reinterpret_cast<std::int64_t*>(resolver.write(target).data());
      if (task.reads.empty()) {
        *tv = target + 7;
      } else if (task.reads.size() == 1) {
        *tv = wrap_add(*tv, *tv);
      } else {
        const auto a = resolver.read(task.reads[0]);
        const auto b = resolver.read(task.reads[1]);
        *tv = wrap_add(*reinterpret_cast<const std::int64_t*>(a.data()),
                       *reinterpret_cast<const std::int64_t*>(b.data()));
      }
    };
  }

  void check_results(const ThreadedExecutor& exec) const {
    for (graph::DataId d = 0; d < graph.num_data(); ++d) {
      const auto bytes = exec.read_object(d);
      std::int64_t v = 0;
      std::memcpy(&v, bytes.data(), sizeof(v));
      ASSERT_EQ(v, expected[d]) << graph.data(d).name;
    }
  }
};

inline int oversubscribed_procs(int factor) {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Cap the thread count: TSan serializes heavily, and past ~16 threads the
  // test measures the sanitizer, not the protocol.
  return std::clamp(factor * hw, 4, 16);
}

}  // namespace rapid::rt::testing
