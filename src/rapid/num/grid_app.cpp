#include "rapid/num/grid_app.hpp"

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "rapid/support/check.hpp"
#include "rapid/support/rng.hpp"

namespace rapid::num {

GridIntApp GridIntApp::build(int rows, int cols, int num_procs,
                             std::int64_t delay_us) {
  RAPID_CHECK(rows >= 1 && cols >= 1 && num_procs >= 1,
              "GridIntApp needs rows, cols, procs >= 1");
  GridIntApp app;
  app.rows_ = rows;
  app.cols_ = cols;
  app.delay_us_ = delay_us;
  app.objects_.reserve(static_cast<std::size_t>(rows) * cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      app.objects_.push_back(app.graph_.add_data(
          "g(" + std::to_string(i) + "," + std::to_string(j) + ")", 8,
          static_cast<graph::ProcId>((i * cols + j) % num_procs)));
    }
  }
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const graph::DataId d = app.at(i, j);
      if (i == 0) {
        app.graph_.add_task("P" + std::to_string(j), {}, {d}, 1.0);
      } else {
        app.graph_.add_task(
            "S(" + std::to_string(i) + "," + std::to_string(j) + ")",
            {app.at(i - 1, j), app.at(i - 1, (j + 1) % cols)}, {d}, 1.0);
      }
      app.graph_.add_task(
          "D(" + std::to_string(i) + "," + std::to_string(j) + ")", {d}, {d},
          1.0);
    }
  }
  app.graph_.finalize();

  // Sequential interpretation in program order = the exactness oracle.
  app.expected_.assign(app.objects_.size(), 0);
  for (graph::TaskId t = 0; t < app.graph_.num_tasks(); ++t) {
    const graph::Task& task = app.graph_.task(t);
    const graph::DataId target = task.writes.front();
    if (task.reads.empty()) {
      app.expected_[target] = target + 7;
    } else if (task.reads.size() == 1) {
      app.expected_[target] *= 2;
    } else {
      app.expected_[target] =
          app.expected_[task.reads[0]] + app.expected_[task.reads[1]];
    }
  }
  return app;
}

rt::ObjectInit GridIntApp::make_init() const {
  return [](graph::DataId, std::span<std::byte> buf) {
    std::memset(buf.data(), 0, buf.size());
  };
}

rt::TaskBody GridIntApp::make_body() const {
  const std::int64_t delay_cap = delay_us_;
  return [this, delay_cap](graph::TaskId t, rt::ObjectResolver& resolver) {
    if (delay_cap > 0) {
      // Stateless per-task draw: interleavings vary wildly across tasks
      // while the schedule of sleeps stays reproducible.
      Rng rng(0x9E3779B9u ^ static_cast<std::uint64_t>(t));
      std::this_thread::sleep_for(std::chrono::microseconds(
          rng.next_int(0, delay_cap)));
    }
    const graph::Task& task = graph_.task(t);
    const graph::DataId target = task.writes.front();
    auto* tv = reinterpret_cast<std::int64_t*>(resolver.write(target).data());
    if (task.reads.empty()) {
      *tv = target + 7;
    } else if (task.reads.size() == 1) {
      *tv *= 2;
    } else {
      const auto a = resolver.read(task.reads[0]);
      const auto b = resolver.read(task.reads[1]);
      *tv = *reinterpret_cast<const std::int64_t*>(a.data()) +
            *reinterpret_cast<const std::int64_t*>(b.data());
    }
  };
}

std::int64_t GridIntApp::max_abs_error(
    const rt::ThreadedExecutor& exec) const {
  std::int64_t worst = 0;
  for (graph::DataId d = 0; d < graph_.num_data(); ++d) {
    const auto bytes = exec.read_object(d);
    std::int64_t v = 0;
    std::memcpy(&v, bytes.data(), sizeof(v));
    const std::int64_t diff = v > expected_[d] ? v - expected_[d]
                                               : expected_[d] - v;
    if (diff > worst) worst = diff;
  }
  return worst;
}

double GridIntApp::residual(const rt::ThreadedExecutor& exec) const {
  return static_cast<double>(max_abs_error(exec));
}

}  // namespace rapid::num
