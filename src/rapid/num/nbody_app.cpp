#include "rapid/num/nbody_app.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "rapid/num/reference.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::num {

namespace {
constexpr std::int64_t kSummaryBytes = 3 * 8;  // mass, Σx, Σy
}

NBodyApp NBodyApp::build(const NBodyConfig& config, int num_procs) {
  RAPID_CHECK(config.width > 0 && config.height > 0, "empty grid");
  RAPID_CHECK(config.particles_per_cell > 0, "no particles");
  RAPID_CHECK(config.timesteps > 0, "no timesteps");
  RAPID_CHECK(num_procs > 0, "num_procs must be positive");
  NBodyApp app;
  app.config_ = config;
  const std::int32_t cells = app.num_cells();
  const std::int64_t particle_bytes =
      static_cast<std::int64_t>(config.particles_per_cell) * 4 * 8;
  const std::int64_t force_bytes =
      static_cast<std::int64_t>(config.particles_per_cell) * 2 * 8;

  // Objects. Cells are distributed by row (cyclic over rows), so vertical
  // neighbors are remote — the paper's stencil-style volatile traffic.
  auto proc_of_row = [&](std::int32_t row) {
    return static_cast<graph::ProcId>(row % num_procs);
  };
  app.particles_.resize(cells);
  app.summaries_.resize(cells);
  app.forces_.resize(cells);
  for (std::int32_t y = 0; y < config.height; ++y) {
    for (std::int32_t x = 0; x < config.width; ++x) {
      const std::int32_t c = app.cell_of(x, y);
      app.particles_[c] = app.graph_.add_data(cat("part[", x, ",", y, "]"),
                                              particle_bytes, proc_of_row(y));
      app.summaries_[c] = app.graph_.add_data(cat("summ[", x, ",", y, "]"),
                                              kSummaryBytes, proc_of_row(y));
      app.forces_[c] = app.graph_.add_data(cat("forc[", x, ",", y, "]"),
                                           force_bytes, proc_of_row(y));
    }
  }
  app.rowsums_.resize(config.height);
  for (std::int32_t r = 0; r < config.height; ++r) {
    app.rowsums_[r] = app.graph_.add_data(cat("rsum[", r, "]"), kSummaryBytes,
                                          proc_of_row(r));
  }
  app.global_ = app.graph_.add_data("glob", kSummaryBytes, 0);

  // 3x3 neighborhoods (clamped at the borders), sorted for determinism.
  app.neighbors_.resize(cells);
  for (std::int32_t y = 0; y < config.height; ++y) {
    for (std::int32_t x = 0; x < config.width; ++x) {
      auto& list = app.neighbors_[app.cell_of(x, y)];
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        for (std::int32_t dx = -1; dx <= 1; ++dx) {
          const std::int32_t nx = x + dx, ny = y + dy;
          if (nx < 0 || nx >= config.width || ny < 0 || ny >= config.height) {
            continue;
          }
          list.push_back(app.cell_of(nx, ny));
        }
      }
      std::sort(list.begin(), list.end());
    }
  }

  // Unrolled timesteps.
  for (std::int32_t step = 0; step < config.timesteps; ++step) {
    for (std::int32_t c = 0; c < cells; ++c) {
      app.graph_.add_task(cat("SUM(", c, ")s", step), {app.particles_[c]},
                          {app.summaries_[c]},
                          4.0 * config.particles_per_cell);
      app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kSummary, c,
                                        c / config.width, step});
    }
    for (std::int32_t r = 0; r < config.height; ++r) {
      app.graph_.add_task(cat("ZROW(", r, ")s", step), {}, {app.rowsums_[r]},
                          1.0);
      app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kZeroRow, -1, r,
                                        step});
      for (std::int32_t x = 0; x < config.width; ++x) {
        const std::int32_t c = app.cell_of(x, r);
        app.graph_.add_task(cat("RACC(", c, ")s", step),
                            {app.summaries_[c], app.rowsums_[r]},
                            {app.rowsums_[r]}, 3.0,
                            /*commute_group=*/app.rowsums_[r]);
        app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kRowAccumulate, c,
                                          r, step});
      }
    }
    app.graph_.add_task(cat("ZGLB s", step), {}, {app.global_}, 1.0);
    app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kZeroGlobal, -1, -1,
                                      step});
    for (std::int32_t r = 0; r < config.height; ++r) {
      app.graph_.add_task(cat("GACC(", r, ")s", step),
                          {app.rowsums_[r], app.global_}, {app.global_}, 3.0,
                          /*commute_group=*/app.global_);
      app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kGlobalAccumulate,
                                        -1, r, step});
    }
    for (std::int32_t c = 0; c < cells; ++c) {
      std::vector<graph::DataId> reads = {app.global_};
      for (std::int32_t nb : app.neighbors_[c]) {
        reads.push_back(app.particles_[nb]);
        reads.push_back(app.summaries_[nb]);
      }
      const double near =
          static_cast<double>(app.neighbors_[c].size()) *
          config.particles_per_cell;
      app.graph_.add_task(
          cat("FRC(", c, ")s", step), std::move(reads), {app.forces_[c]},
          10.0 * config.particles_per_cell * near);
      app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kForce, c,
                                        c / config.width, step});
    }
    for (std::int32_t c = 0; c < cells; ++c) {
      app.graph_.add_task(cat("UPD(", c, ")s", step),
                          {app.forces_[c], app.particles_[c]},
                          {app.particles_[c]},
                          6.0 * config.particles_per_cell);
      app.task_info_.push_back(TaskInfo{TaskInfo::Kind::kUpdate, c,
                                        c / config.width, step});
    }
  }
  app.graph_.finalize();
  return app;
}

std::vector<double> NBodyApp::initial_particles() const {
  // Deterministic disk-ish initial condition: particles uniform in their
  // cell, small random velocities.
  Rng rng(config_.seed);
  const std::int32_t cells = num_cells();
  std::vector<double> state(
      static_cast<std::size_t>(cells) * config_.particles_per_cell * 4);
  std::size_t k = 0;
  for (std::int32_t y = 0; y < config_.height; ++y) {
    for (std::int32_t x = 0; x < config_.width; ++x) {
      for (std::int32_t p = 0; p < config_.particles_per_cell; ++p) {
        state[k++] = x + rng.next_double();         // x
        state[k++] = y + rng.next_double();         // y
        state[k++] = rng.next_double(-0.1, 0.1);    // vx
        state[k++] = rng.next_double(-0.1, 0.1);    // vy
      }
    }
  }
  return state;
}

void NBodyApp::do_summary(const double* particles, double* summary) const {
  double mass = 0.0, sx = 0.0, sy = 0.0;
  for (std::int32_t p = 0; p < config_.particles_per_cell; ++p) {
    mass += 1.0;
    sx += particles[p * 4 + 0];
    sy += particles[p * 4 + 1];
  }
  summary[0] = mass;
  summary[1] = sx;
  summary[2] = sy;
}

void NBodyApp::do_force(std::size_t self_index,
                        const double* const* near_particles,
                        const double* const* near_summaries,
                        std::size_t near_count, const double* global,
                        double* forces) const {
  const double eps2 = config_.softening * config_.softening;
  // Far field: global aggregate minus the near cells, as one point mass.
  double far_mass = global[0], far_sx = global[1], far_sy = global[2];
  for (std::size_t s = 0; s < near_count; ++s) {
    far_mass -= near_summaries[s][0];
    far_sx -= near_summaries[s][1];
    far_sy -= near_summaries[s][2];
  }
  const bool has_far = far_mass > 0.5;  // masses are integral
  const double far_cx = has_far ? far_sx / far_mass : 0.0;
  const double far_cy = has_far ? far_sy / far_mass : 0.0;
  const double* own = near_particles[self_index];
  for (std::int32_t p = 0; p < config_.particles_per_cell; ++p) {
    const double xi = own[p * 4 + 0];
    const double yi = own[p * 4 + 1];
    double fx = 0.0, fy = 0.0;
    for (std::size_t s = 0; s < near_count; ++s) {
      const double* src = near_particles[s];
      for (std::int32_t q = 0; q < config_.particles_per_cell; ++q) {
        const double dx = src[q * 4 + 0] - xi;
        const double dy = src[q * 4 + 1] - yi;
        const double r2 = dx * dx + dy * dy;
        if (s == self_index && q == p) continue;  // self pair
        const double denom = (r2 + eps2) * std::sqrt(r2 + eps2);
        fx += dx / denom;
        fy += dy / denom;
      }
    }
    if (has_far) {
      const double dx = far_cx - xi;
      const double dy = far_cy - yi;
      const double r2 = dx * dx + dy * dy;
      const double denom = (r2 + eps2) * std::sqrt(r2 + eps2);
      fx += far_mass * dx / denom;
      fy += far_mass * dy / denom;
    }
    forces[p * 2 + 0] = fx;
    forces[p * 2 + 1] = fy;
  }
}

void NBodyApp::do_update(const double* forces, double* particles) const {
  for (std::int32_t p = 0; p < config_.particles_per_cell; ++p) {
    particles[p * 4 + 2] += forces[p * 2 + 0] * config_.dt;
    particles[p * 4 + 3] += forces[p * 2 + 1] * config_.dt;
    particles[p * 4 + 0] += particles[p * 4 + 2] * config_.dt;
    particles[p * 4 + 1] += particles[p * 4 + 3] * config_.dt;
  }
}

rt::ObjectInit NBodyApp::make_init() const {
  const std::vector<double> state = initial_particles();
  return [this, state](graph::DataId d, std::span<std::byte> buffer) {
    std::memset(buffer.data(), 0, buffer.size());
    for (std::int32_t c = 0; c < num_cells(); ++c) {
      if (particles_[c] == d) {
        std::memcpy(buffer.data(),
                    state.data() +
                        static_cast<std::size_t>(c) *
                            config_.particles_per_cell * 4,
                    buffer.size());
        return;
      }
    }
    // Summaries, row sums, global and forces start zeroed.
  };
}

rt::TaskBody NBodyApp::make_body() const {
  return [this](graph::TaskId t, rt::ObjectResolver& resolver) {
    const TaskInfo& info = task_info_[t];
    auto dbl = [](std::span<const std::byte> s) {
      return reinterpret_cast<const double*>(s.data());
    };
    auto mut = [](std::span<std::byte> s) {
      return reinterpret_cast<double*>(s.data());
    };
    switch (info.kind) {
      case TaskInfo::Kind::kSummary: {
        do_summary(dbl(resolver.read(particles_[info.cell])),
                   mut(resolver.write(summaries_[info.cell])));
        break;
      }
      case TaskInfo::Kind::kZeroRow: {
        auto out = resolver.write(rowsums_[info.row]);
        std::memset(out.data(), 0, out.size());
        break;
      }
      case TaskInfo::Kind::kRowAccumulate: {
        const double* summary = dbl(resolver.read(summaries_[info.cell]));
        double* acc = mut(resolver.write(rowsums_[info.row]));
        for (int k = 0; k < 3; ++k) acc[k] += summary[k];
        break;
      }
      case TaskInfo::Kind::kZeroGlobal: {
        auto out = resolver.write(global_);
        std::memset(out.data(), 0, out.size());
        break;
      }
      case TaskInfo::Kind::kGlobalAccumulate: {
        const double* rowsum = dbl(resolver.read(rowsums_[info.row]));
        double* acc = mut(resolver.write(global_));
        for (int k = 0; k < 3; ++k) acc[k] += rowsum[k];
        break;
      }
      case TaskInfo::Kind::kForce: {
        const auto& nbrs = neighbors_[info.cell];
        std::vector<const double*> near_particles, near_summaries;
        std::size_t self_index = 0;
        for (std::size_t s = 0; s < nbrs.size(); ++s) {
          if (nbrs[s] == info.cell) self_index = s;
          near_particles.push_back(dbl(resolver.read(particles_[nbrs[s]])));
          near_summaries.push_back(dbl(resolver.read(summaries_[nbrs[s]])));
        }
        do_force(self_index, near_particles.data(), near_summaries.data(),
                 nbrs.size(), dbl(resolver.read(global_)),
                 mut(resolver.write(forces_[info.cell])));
        break;
      }
      case TaskInfo::Kind::kUpdate: {
        do_update(dbl(resolver.read(forces_[info.cell])),
                  mut(resolver.write(particles_[info.cell])));
        break;
      }
    }
  };
}

std::vector<double> NBodyApp::extract_particles(
    const rt::ThreadedExecutor& exec) const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(num_cells()) *
              config_.particles_per_cell * 4);
  for (std::int32_t c = 0; c < num_cells(); ++c) {
    const auto bytes = exec.read_object(particles_[c]);
    const auto* v = reinterpret_cast<const double*>(bytes.data());
    out.insert(out.end(), v,
               v + static_cast<std::size_t>(config_.particles_per_cell) * 4);
  }
  return out;
}

std::vector<double> NBodyApp::reference_run() const {
  const std::int32_t cells = num_cells();
  const std::size_t per_cell =
      static_cast<std::size_t>(config_.particles_per_cell) * 4;
  std::vector<double> particles = initial_particles();
  std::vector<double> summaries(static_cast<std::size_t>(cells) * 3, 0.0);
  std::vector<double> forces(
      static_cast<std::size_t>(cells) * config_.particles_per_cell * 2, 0.0);
  std::vector<double> rowsums(static_cast<std::size_t>(config_.height) * 3);
  double global[3];
  for (std::int32_t step = 0; step < config_.timesteps; ++step) {
    for (std::int32_t c = 0; c < cells; ++c) {
      do_summary(particles.data() + c * per_cell, summaries.data() + c * 3);
    }
    for (std::int32_t r = 0; r < config_.height; ++r) {
      double* acc = rowsums.data() + r * 3;
      acc[0] = acc[1] = acc[2] = 0.0;
      for (std::int32_t x = 0; x < config_.width; ++x) {
        const double* s = summaries.data() + cell_of(x, r) * 3;
        for (int k = 0; k < 3; ++k) acc[k] += s[k];
      }
    }
    global[0] = global[1] = global[2] = 0.0;
    for (std::int32_t r = 0; r < config_.height; ++r) {
      for (int k = 0; k < 3; ++k) global[k] += rowsums[r * 3 + k];
    }
    for (std::int32_t c = 0; c < cells; ++c) {
      const auto& nbrs = neighbors_[c];
      std::vector<const double*> near_particles, near_summaries;
      std::size_t self_index = 0;
      for (std::size_t s = 0; s < nbrs.size(); ++s) {
        if (nbrs[s] == c) self_index = s;
        near_particles.push_back(particles.data() + nbrs[s] * per_cell);
        near_summaries.push_back(summaries.data() + nbrs[s] * 3);
      }
      do_force(self_index, near_particles.data(), near_summaries.data(),
               nbrs.size(), global,
               forces.data() +
                   static_cast<std::size_t>(c) * config_.particles_per_cell *
                       2);
    }
    for (std::int32_t c = 0; c < cells; ++c) {
      do_update(forces.data() + static_cast<std::size_t>(c) *
                                    config_.particles_per_cell * 2,
                particles.data() + c * per_cell);
    }
  }
  return particles;
}

double NBodyApp::residual(const rt::ThreadedExecutor& exec) const {
  return max_rel_error(extract_particles(exec), reference_run());
}

}  // namespace rapid::num
