#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

// Per-layer measurements of the traced run: each times calls into one
// layer's public functions, on the workload's own model and pairs, and
// records every timed call as a span.

#include "core/trainer.h"
#include "data/pair_dataset.h"
#include "driver/common.h"

namespace perfbench {

struct LayerInputs {
  /// The workload's model. Its int8 twin is measured when present.
  const adamel::core::TrainedAdamel* model = nullptr;
  /// Pairs the workload scores (or trains on); cycled through in order.
  const data::PairDataset* pairs = nullptr;
  /// The workload's batch size: the mean served batch, or the training
  /// batch.
  int batch = 32;
};

/// Measures the core, text, nn and common layers and adds their metrics.
void MeasureLayers(const LayerInputs& inputs, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_
