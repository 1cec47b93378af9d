// Golden pin of every adaptive sampler's output: FNV-1a hashes of a 10k-draw
// sample stream and of the factors a one-thread training run ends with, for
// the four DSS modes under MAP and MRR and for AoBPR-BPR and DNS-BPR, on two
// inputs. The hashes were recorded from the comparator-sort rank lists and
// the pair nth_element positive pick; the radix refresh and the key
// quickselect must reproduce them bit for bit.

#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "clapf/baselines/bpr.h"
#include "clapf/core/clapf_trainer.h"
#include "clapf/data/synthetic.h"
#include "clapf/sampling/aobpr_sampler.h"
#include "clapf/sampling/dns_sampler.h"
#include "clapf/sampling/dss_sampler.h"

namespace clapf {
namespace {

constexpr int kStreamDraws = 10000;
constexpr int64_t kTrainIterations = 20000;
constexpr int32_t kFactors = 8;

// FNV-1a, 64-bit, continued from `h` over `bytes` bytes at `p`.
uint64_t Fnv1a(uint64_t h, const void* p, size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t x = 0; x < bytes; ++x) {
    h ^= b[x];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string Hex(uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
  return buf;
}

uint64_t HashTriples(TripleSampler& sampler) {
  uint64_t h = kFnvBasis;
  for (int n = 0; n < kStreamDraws; ++n) {
    const Triple t = sampler.Sample();
    const int32_t fields[4] = {t.u, t.i, t.k, t.j};
    h = Fnv1a(h, fields, sizeof(fields));
  }
  return h;
}

uint64_t HashPairs(PairSampler& sampler) {
  uint64_t h = kFnvBasis;
  for (int n = 0; n < kStreamDraws; ++n) {
    const PairSample p = sampler.Sample();
    const int32_t fields[3] = {p.u, p.i, p.j};
    h = Fnv1a(h, fields, sizeof(fields));
  }
  return h;
}

uint64_t HashModel(const FactorModel& m) {
  uint64_t h = kFnvBasis;
  h = Fnv1a(h, m.user_factor_data().data(),
            m.user_factor_data().size() * sizeof(double));
  h = Fnv1a(h, m.item_factor_data().data(),
            m.item_factor_data().size() * sizeof(double));
  return Fnv1a(h, m.item_bias_data().data(),
               m.item_bias_data().size() * sizeof(double));
}

// The two inputs. kSmall: a small synthetic catalog, streams over a
// Gaussian model, trainings from the default Gaussian init. kTies: factors
// that take six values (±0.0, ±0.5, ±1) for the streams, and trainings from
// init_stddev 0, whose factors start as a mix of −0.0 and +0.0 and stay
// zeros (an update turns a touched one into +0.0): every rank-list refresh
// and positive pick of those runs orders a fully tied column.
enum class Input { kSmall, kTies };

Dataset InputData(Input input) {
  SyntheticConfig cfg;
  if (input == Input::kSmall) {
    cfg.num_users = 80;
    cfg.num_items = 400;
    cfg.num_interactions = 4000;
    cfg.seed = 5;
  } else {
    cfg.num_users = 60;
    cfg.num_items = 257;
    cfg.num_interactions = 3000;
    cfg.seed = 6;
  }
  return *GenerateSynthetic(cfg);
}

FactorModel InputModel(Input input, const Dataset& ds) {
  FactorModel model(ds.num_users(), ds.num_items(), kFactors);
  Rng rng(input == Input::kSmall ? 17 : 18);
  if (input == Input::kSmall) {
    model.InitGaussian(rng, 0.3);
    return model;
  }
  static constexpr double kValues[] = {-1.0, -0.5, -0.0, 0.0, 0.5, 1.0};
  for (double& x : model.mutable_user_factor_data()) x = kValues[rng.Uniform(6)];
  for (double& x : model.mutable_item_factor_data()) x = kValues[rng.Uniform(6)];
  return model;
}

SgdOptions TrainSgd(Input input) {
  SgdOptions sgd;
  sgd.num_factors = kFactors;
  sgd.iterations = kTrainIterations;
  sgd.seed = 3;
  if (input == Input::kTies) sgd.init_stddev = 0.0;
  return sgd;
}

struct DssCase {
  const char* name;
  ClapfSamplerKind kind;
  ClapfVariant variant;
};

constexpr DssCase kDssCases[] = {
    {"DSS-MAP", ClapfSamplerKind::kDss, ClapfVariant::kMap},
    {"DSS-MRR", ClapfSamplerKind::kDss, ClapfVariant::kMrr},
    {"Positive-MAP", ClapfSamplerKind::kPositiveOnly, ClapfVariant::kMap},
    {"Positive-MRR", ClapfSamplerKind::kPositiveOnly, ClapfVariant::kMrr},
    {"Negative-MAP", ClapfSamplerKind::kNegativeOnly, ClapfVariant::kMap},
    {"Negative-MRR", ClapfSamplerKind::kNegativeOnly, ClapfVariant::kMrr},
    {"Degenerate-MAP", ClapfSamplerKind::kUniform, ClapfVariant::kMap},
    {"Degenerate-MRR", ClapfSamplerKind::kUniform, ClapfVariant::kMrr},
};

// The degenerate DSS mode (both adaptive halves off) is a sampler
// configuration only; the trainer's kUniform is the separate uniform
// sampler, so its trained run pins UniformTripleSampler-fed CLAPF.
uint64_t DssStream(const Dataset& ds, const FactorModel& model,
                   const DssCase& c) {
  DssOptions opts;
  opts.variant = c.variant;
  opts.adaptive_positive = c.kind == ClapfSamplerKind::kDss ||
                           c.kind == ClapfSamplerKind::kPositiveOnly;
  opts.adaptive_negative = c.kind == ClapfSamplerKind::kDss ||
                           c.kind == ClapfSamplerKind::kNegativeOnly;
  DssSampler sampler(&ds, &model, opts, 29);
  return HashTriples(sampler);
}

// Trains one thread, checks the kTies claim above (every factor is still a
// zero), and hashes the trained parameters.
uint64_t TrainAndHash(FactorModelTrainer& trainer, const Dataset& ds,
                      Input input) {
  EXPECT_TRUE(trainer.Train(ds).ok());
  const FactorModel& m = *trainer.model();
  if (input == Input::kTies) {
    for (double x : m.item_factor_data()) EXPECT_EQ(x, 0.0);
  }
  return HashModel(m);
}

uint64_t DssTrained(const Dataset& ds, Input input, const DssCase& c) {
  ClapfOptions opts;
  opts.sgd = TrainSgd(input);
  opts.variant = c.variant;
  opts.sampler = c.kind;
  ClapfTrainer trainer(opts);
  return TrainAndHash(trainer, ds, input);
}

uint64_t BprTrained(const Dataset& ds, Input input, PairSamplerKind kind) {
  BprOptions opts;
  opts.sgd = TrainSgd(input);
  opts.sampler = kind;
  BprTrainer trainer(opts);
  return TrainAndHash(trainer, ds, input);
}

struct Golden {
  uint64_t stream;
  uint64_t trained;
};

void ExpectGolden(const char* what, Golden got, Golden want) {
  EXPECT_EQ(got.stream, want.stream)
      << what << " stream hash " << Hex(got.stream);
  EXPECT_EQ(got.trained, want.trained)
      << what << " trained-factor hash " << Hex(got.trained);
}

void CheckInput(Input input, const Golden (&dss)[8], Golden aobpr,
                Golden dns) {
  const Dataset ds = InputData(input);
  const FactorModel model = InputModel(input, ds);
  for (size_t c = 0; c < 8; ++c) {
    ExpectGolden(kDssCases[c].name,
                 {DssStream(ds, model, kDssCases[c]),
                  DssTrained(ds, input, kDssCases[c])},
                 dss[c]);
  }
  AobprPairSampler aobpr_sampler(&ds, &model, AobprPairSampler::Options{}, 31);
  ExpectGolden("AoBPR-BPR",
               {HashPairs(aobpr_sampler),
                BprTrained(ds, input, PairSamplerKind::kAobpr)},
               aobpr);
  DnsPairSampler dns_sampler(&ds, &model, BprOptions{}.dns_candidates, 37);
  ExpectGolden("DNS-BPR",
               {HashPairs(dns_sampler),
                BprTrained(ds, input, PairSamplerKind::kDns)},
               dns);
}

TEST(SamplingGoldenTest, SmallCatalogMatchesTheComparatorSortGoldens) {
  const Golden dss[8] = {
      {0x0a8d4fb6a53dc44aull, 0x1d768cacb80a5265ull},  // DSS-MAP
      {0x247bbb60b3b3299dull, 0xbcfa2ef671499dceull},  // DSS-MRR
      {0x7673fde918eeb991ull, 0xee505100bf42868full},  // Positive-MAP
      {0xeb8b4f9f10234e6bull, 0xf8a458359684efebull},  // Positive-MRR
      {0x7cf96a3725ad1a10ull, 0x077aa9fc3d4cc898ull},  // Negative-MAP
      {0x7cf96a3725ad1a10ull, 0x0d3a04ca87fa9189ull},  // Negative-MRR
      {0xa55c57a6ca087e8bull, 0xe8508d5a9a63d6dbull},  // Degenerate-MAP
      {0xa55c57a6ca087e8bull, 0x2878d0c8ccac8294ull},  // Degenerate-MRR
  };
  CheckInput(Input::kSmall, dss,
             {0x91094842b4b084acull, 0x1671854492edc948ull},
             {0x12dbafdc43235e76ull, 0xe8881334111aedb2ull});
}

TEST(SamplingGoldenTest, TieHeavyCatalogMatchesTheComparatorSortGoldens) {
  const Golden dss[8] = {
      {0x76a5729dbfe40d75ull, 0x30980f3f4ee42c44ull},  // DSS-MAP
      {0x3f9ceb32ff816352ull, 0x6e87a7a2ff856de5ull},  // DSS-MRR
      {0x4e44bef1626458ebull, 0x994347950e9fe00dull},  // Positive-MAP
      {0xf3ee657187ba2f9cull, 0x6a33a6822b0def16ull},  // Positive-MRR
      {0x685a9f8ce6cdf0c9ull, 0x9087b7b3993141f8ull},  // Negative-MAP
      {0x685a9f8ce6cdf0c9ull, 0x56b6689f51803cdcull},  // Negative-MRR
      {0xb6e0845b758f9af0ull, 0x70abbdae59cf14eaull},  // Degenerate-MAP
      {0xb6e0845b758f9af0ull, 0x46fd40b875191d65ull},  // Degenerate-MRR
  };
  CheckInput(Input::kTies, dss,
             {0x552ebdd41f8f0468ull, 0x84546e00d1609d06ull},
             {0xf7cbd67f46e2a542ull, 0x438213c4ba6dc5efull});
}

}  // namespace
}  // namespace clapf
