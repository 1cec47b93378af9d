#ifndef CLAPF_RECOMMENDER_H_
#define CLAPF_RECOMMENDER_H_

// Declares nothing. Top-k queries are answered by ModelServer
// (clapf/serving/sharded_server.h), and one shard is the monolithic case;
// the scan itself is Retrieve (clapf/model/retrieval.h). This header keeps
// the older include path, and the headers it always pulled in, working.
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "clapf/data/dataset.h"
#include "clapf/model/factor_model.h"
#include "clapf/model/ivf_index.h"
#include "clapf/model/packed_snapshot.h"
#include "clapf/model/retrieval.h"
#include "clapf/obs/metrics.h"
#include "clapf/util/status.h"
#include "clapf/util/top_k.h"

#endif  // CLAPF_RECOMMENDER_H_
