#include "mpath/benchcore/stack.hpp"

namespace mpath::benchcore {

SimStack::SimStack(topo::System system, StackOptions options)
    : system_(std::make_unique<topo::System>(std::move(system))),
      engine_(std::make_unique<sim::Engine>()),
      network_(std::make_unique<sim::FluidNetwork>(*engine_)),
      runtime_(std::make_unique<gpusim::GpuRuntime>(*system_, *engine_,
                                                    *network_, options.seed)),
      pipeline_(std::make_unique<pipeline::PipelineEngine>(
          *runtime_, StackOptions::staging_buffers_per_device,
          gpusim::Payload::Simulated)) {}

void SimStack::finish(std::unique_ptr<gpusim::DataChannel> channel,
                      const StackOptions& options) {
  channel_ = std::move(channel);
  if (options.collective_graphs) {
    if (auto* mdc = dynamic_cast<pipeline::ModelDrivenChannel*>(
            channel_.get())) {
      chain_ = std::make_unique<pipeline::ChainController>(*mdc);
    }
  }
  world_ = std::make_unique<mpisim::World>(*runtime_, *channel_,
                                           options.nranks);
  if (chain_ != nullptr) world_->set_chain_controller(chain_.get());
}

SimStack SimStack::direct(topo::System system, StackOptions options) {
  SimStack stack(std::move(system), options);
  stack.finish(std::make_unique<pipeline::SinglePathChannel>(*stack.pipeline_),
               options);
  return stack;
}

SimStack SimStack::model_driven(topo::System system,
                                model::PathConfigurator& configurator,
                                topo::PathPolicy policy,
                                StackOptions options) {
  SimStack stack(std::move(system), options);
  stack.finish(std::make_unique<pipeline::ModelDrivenChannel>(
                   *stack.pipeline_, configurator, policy, options.model),
               options);
  return stack;
}

SimStack SimStack::model_driven_scheduled(topo::System system,
                                          model::PathConfigurator& configurator,
                                          topo::PathPolicy policy,
                                          pipeline::SchedulerOptions sched,
                                          StackOptions options) {
  SimStack stack(std::move(system), options);
  stack.scheduler_ = std::make_unique<pipeline::TransferScheduler>(
      *stack.pipeline_, configurator, sched);
  stack.finish(std::make_unique<pipeline::ModelDrivenChannel>(
                   *stack.pipeline_, *stack.scheduler_, configurator, policy,
                   options.model),
               options);
  return stack;
}

SimStack SimStack::static_plan(topo::System system, pipeline::StaticPlan plan,
                               StackOptions options) {
  SimStack stack(std::move(system), options);
  stack.finish(std::make_unique<pipeline::StaticPlanChannel>(
                   *stack.pipeline_, std::move(plan)),
               options);
  return stack;
}

}  // namespace mpath::benchcore
