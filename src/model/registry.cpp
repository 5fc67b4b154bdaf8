#include "mpath/model/registry.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "mpath/util/least_squares.hpp"

namespace mpath::model {

void ModelRegistry::set_route_params(topo::DeviceId from, topo::DeviceId to,
                                     LinkParams params) {
  if (params.beta <= 0.0) {
    throw std::invalid_argument("ModelRegistry: beta must be positive");
  }
  routes_[{from, to}] = params;
}

bool ModelRegistry::has_route_params(topo::DeviceId from,
                                     topo::DeviceId to) const {
  return routes_.count({from, to}) != 0;
}

const LinkParams& ModelRegistry::route_params(topo::DeviceId from,
                                              topo::DeviceId to) const {
  auto it = routes_.find({from, to});
  if (it == routes_.end()) {
    throw std::out_of_range("ModelRegistry: no parameters for route " +
                            std::to_string(from) + " -> " +
                            std::to_string(to));
  }
  return it->second;
}

void ModelRegistry::set_epsilon(topo::PathKind kind, double epsilon_s) {
  epsilons_[kind] = epsilon_s;
}

double ModelRegistry::epsilon(topo::PathKind kind) const {
  auto it = epsilons_.find(kind);
  return it == epsilons_.end() ? 0.0 : it->second;
}

PathParams ModelRegistry::path_params(topo::DeviceId src, topo::DeviceId dst,
                                      const topo::PathPlan& plan) const {
  PathParams p;
  p.plan = plan;
  if (plan.kind == topo::PathKind::Direct) {
    p.first = route_params(src, dst);
    return p;
  }
  p.first = route_params(src, plan.stage);
  p.second = route_params(plan.stage, dst);
  p.epsilon = epsilon(plan.kind);
  return p;
}

void ModelRegistry::set_contention_factor(topo::DeviceId src,
                                          topo::DeviceId dst,
                                          const topo::PathPlan& plan,
                                          double factor) {
  if (factor < 1.0) {
    throw std::invalid_argument(
        "ModelRegistry: contention factor must be >= 1");
  }
  contention_factors_[{src, dst, static_cast<int>(plan.kind), plan.stage}] =
      factor;
}

std::optional<double> ModelRegistry::contention_factor(
    topo::DeviceId src, topo::DeviceId dst,
    const topo::PathPlan& plan) const {
  auto it = contention_factors_.find(
      {src, dst, static_cast<int>(plan.kind), plan.stage});
  if (it == contention_factors_.end()) return std::nullopt;
  return it->second;
}

void ModelRegistry::save_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("ModelRegistry: cannot write " + path);
  }
  // Every double at round-trip precision: load_csv(save_csv(r)) must
  // configure every transfer exactly as r does.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "record,key1,key2,alpha,beta\n";
  out << "system," << system_name_ << ",,,\n";
  out << "issue,,," << issue_alpha_ << ",\n";
  out << "protocol,,," << protocol_alpha_ << ",\n";
  for (const auto& [kind, eps] : epsilons_) {
    out << "epsilon," << std::string(topo::to_string(kind)) << ",," << eps
        << ",\n";
  }
  for (const auto& [key, lp] : routes_) {
    out << "route," << key.first << "," << key.second << "," << lp.alpha
        << "," << lp.beta << "\n";
  }
  for (const auto& [key, factor] : contention_factors_) {
    out << "contention," << std::get<0>(key) << "," << std::get<1>(key)
        << "," << std::get<2>(key) << "|" << std::get<3>(key) << "," << factor
        << "\n";
  }
}

ModelRegistry ModelRegistry::load_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ModelRegistry: cannot read " + path);
  }
  ModelRegistry reg;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string record, k1, k2, a, b;
    std::getline(ss, record, ',');
    std::getline(ss, k1, ',');
    std::getline(ss, k2, ',');
    std::getline(ss, a, ',');
    std::getline(ss, b, ',');
    if (record == "system") {
      reg.system_name_ = k1;
    } else if (record == "issue") {
      reg.issue_alpha_ = std::stod(a);
    } else if (record == "protocol") {
      reg.protocol_alpha_ = std::stod(a);
    } else if (record == "epsilon") {
      topo::PathKind kind = topo::PathKind::Direct;
      if (k1 == "gpu-staged") kind = topo::PathKind::GpuStaged;
      else if (k1 == "host-staged") kind = topo::PathKind::HostStaged;
      reg.epsilons_[kind] = std::stod(a);
    } else if (record == "contention") {
      const auto bar = a.find('|');
      reg.contention_factors_[{static_cast<topo::DeviceId>(std::stoul(k1)),
                               static_cast<topo::DeviceId>(std::stoul(k2)),
                               std::stoi(a.substr(0, bar)),
                               static_cast<topo::DeviceId>(
                                   std::stoul(a.substr(bar + 1)))}] =
          std::stod(b);
    } else if (record == "route") {
      reg.routes_[{static_cast<topo::DeviceId>(std::stoul(k1)),
                   static_cast<topo::DeviceId>(std::stoul(k2))}] =
          LinkParams{std::stod(a), std::stod(b)};
    } else {
      throw std::runtime_error("ModelRegistry: bad record '" + record + "'");
    }
  }
  return reg;
}

void HockneyFitter::add_sample(double n_bytes, double seconds) {
  if (n_bytes <= 0.0 || seconds <= 0.0) {
    throw std::invalid_argument("HockneyFitter: samples must be positive");
  }
  ns_.push_back(n_bytes);
  ts_.push_back(seconds);
}

LinkParams HockneyFitter::fit() const {
  const auto line = util::fit_line(ns_, ts_);
  if (line.slope <= 0.0) {
    throw std::runtime_error(
        "HockneyFitter: non-positive slope; samples do not look like a "
        "transfer-time curve");
  }
  LinkParams lp;
  lp.alpha = line.intercept > 0.0 ? line.intercept : 0.0;
  lp.beta = 1.0 / line.slope;
  return lp;
}

}  // namespace mpath::model
