#include "core/engine.h"

namespace umicro::core {

UMicroEngine::UMicroEngine(std::size_t dimensions, const EngineConfig& config)
    : core_(dimensions, config.umicro, config.snapshot) {
  core_.AttachMetrics(&metrics_);
}

EngineState UMicroEngine::ExportEngineState() {
  EngineState state = core_.ExportState();
  state.counters = metrics_.CounterCells();
  state.gauges = metrics_.GaugeCells();
  return state;
}

bool UMicroEngine::RestoreEngineState(const EngineState& state) {
  if (!core_.RestoreState(state)) return false;
  metrics_.RestoreCells(state.counters, state.gauges);
  return true;
}

}  // namespace umicro::core
