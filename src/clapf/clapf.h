#ifndef CLAPF_CLAPF_H_
#define CLAPF_CLAPF_H_

/// Umbrella header: the full public API of the CLAPF library.
///
/// Quickstart:
///   clapf::SyntheticConfig cfg = clapf::PresetConfig(
///       clapf::DatasetPreset::kMl100k);
///   clapf::Dataset data = *clapf::GenerateSynthetic(cfg);
///   auto split = clapf::SplitRandom(data, 0.5, /*seed=*/1);
///   clapf::ClapfOptions opts;        // CLAPF-MAP, uniform sampler
///   clapf::ClapfTrainer trainer(opts);
///   CLAPF_CHECK_OK(trainer.Train(split.train));
///   clapf::Evaluator eval(&split.train, &split.test);
///   auto summary = eval.Evaluate(*trainer.model(), clapf::PaperCutoffs());

#include "clapf/baselines/bpr.h"
#include "clapf/baselines/climf.h"
#include "clapf/baselines/ease.h"
#include "clapf/baselines/gbpr.h"
#include "clapf/baselines/deep_icf.h"
#include "clapf/baselines/item_knn.h"
#include "clapf/baselines/mpr.h"
#include "clapf/baselines/neu_mf.h"
#include "clapf/baselines/neu_pr.h"
#include "clapf/baselines/pop_rank.h"
#include "clapf/baselines/random_walk.h"
#include "clapf/baselines/wmf.h"
#include "clapf/core/checkpoint.h"
#include "clapf/core/clapf_trainer.h"
#include "clapf/core/divergence_guard.h"
#include "clapf/core/model_selection.h"
#include "clapf/core/ranker.h"
#include "clapf/core/sgd_executor.h"
#include "clapf/core/smoothing.h"
#include "clapf/core/trainer.h"
#include "clapf/core/trainer_factory.h"
#include "clapf/data/dataset.h"
#include "clapf/data/dataset_builder.h"
#include "clapf/data/dataset_io.h"
#include "clapf/data/loader.h"
#include "clapf/data/split.h"
#include "clapf/data/statistics.h"
#include "clapf/data/synthetic.h"
#include "clapf/eval/beyond_accuracy.h"
#include "clapf/eval/evaluator.h"
#include "clapf/eval/sampled_evaluator.h"
#include "clapf/eval/significance.h"
#include "clapf/eval/stratified.h"
#include "clapf/eval/oracle.h"
#include "clapf/eval/protocol.h"
#include "clapf/eval/ranking_metrics.h"
#include "clapf/model/factor_model.h"
#include "clapf/model/model_io.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/retrieval.h"
#include "clapf/model/score_kernel.h"
#include "clapf/obs/exporter.h"
#include "clapf/obs/metrics.h"
#include "clapf/obs/trace_span.h"
#include "clapf/online/continuous_deployer.h"
#include "clapf/online/online_trainer.h"
#include "clapf/online/wal.h"
#include "clapf/sampling/abs_sampler.h"
#include "clapf/sampling/alias.h"
#include "clapf/sampling/aobpr_sampler.h"
#include "clapf/sampling/dns_sampler.h"
#include "clapf/sampling/dss_sampler.h"
#include "clapf/sampling/sampler.h"
#include "clapf/sampling/uniform_sampler.h"
#include "clapf/serving/admission_queue.h"
#include "clapf/serving/flight_recorder.h"
#include "clapf/serving/governor.h"
#include "clapf/serving/model_shard.h"
#include "clapf/serving/publish_request.h"
#include "clapf/serving/serving_stats.h"
#include "clapf/serving/shard_map.h"
#include "clapf/serving/sharded_server.h"
#include "clapf/util/crc32.h"
#include "clapf/util/fault_injection.h"
#include "clapf/util/fs.h"
#include "clapf/util/logging.h"
#include "clapf/util/status.h"
#include "clapf/util/stopwatch.h"

#endif  // CLAPF_CLAPF_H_
