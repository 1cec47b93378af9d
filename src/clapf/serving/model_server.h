#ifndef CLAPF_SERVING_MODEL_SERVER_H_
#define CLAPF_SERVING_MODEL_SERVER_H_

// ModelServer and its options are declared in sharded_server.h: the server
// is sharded, and one shard is the monolithic case. This header keeps the
// older include path working.
#include "clapf/serving/sharded_server.h"

#endif  // CLAPF_SERVING_MODEL_SERVER_H_
