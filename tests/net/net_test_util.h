#ifndef TPGNN_TESTS_NET_NET_TEST_UTIL_H_
#define TPGNN_TESTS_NET_NET_TEST_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/config.h"
#include "graph/temporal_graph.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/event.h"
#include "serve/inference_engine.h"
#include "serve/serve_test_util.h"

// Shared helpers for the network tests: event builders mirroring the engine
// tests, and a harness that runs a real Server on an ephemeral loopback
// port in a background thread.

namespace tpgnn::net {

inline serve::Event BeginEvent(uint64_t id, const graph::TemporalGraph& g,
                               double time = 0.0) {
  serve::Event e;
  e.kind = serve::Event::Kind::kBegin;
  e.session_id = id;
  e.time = time;
  e.num_nodes = g.num_nodes();
  e.feature_dim = g.feature_dim();
  e.features = serve::AllNodeFeatures(g);
  return e;
}

inline serve::Event EdgeEvent(uint64_t id, int64_t src, int64_t dst,
                              double edge_time, double time = 0.0) {
  serve::Event e;
  e.kind = serve::Event::Kind::kEdge;
  e.session_id = id;
  e.time = time;
  e.src = src;
  e.dst = dst;
  e.edge_time = edge_time;
  return e;
}

inline serve::Event ScoreEvent(uint64_t id, int label = -1) {
  serve::Event e;
  e.kind = serve::Event::Kind::kScore;
  e.session_id = id;
  e.label = label;
  return e;
}

inline serve::Event EndEvent(uint64_t id) {
  serve::Event e;
  e.kind = serve::Event::Kind::kEnd;
  e.session_id = id;
  return e;
}

// A live server on 127.0.0.1:<ephemeral> backed by its own engine (the tiny
// serving model unless `config` says otherwise), with the poll loop on a
// background thread. Stop() (or the destructor) requests a graceful
// shutdown and joins.
class ServerHarness {
 public:
  explicit ServerHarness(
      const serve::EngineOptions& engine_options = {},
      ServerOptions server_options = {}, uint64_t seed = 5,
      const core::TpGnnConfig& config = serve::TinyServeConfig())
      : engine_(config, seed, engine_options) {
    server_options.port = 0;
    server_ = std::make_unique<Server>(&engine_, server_options);
    Status status = server_->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "harness start failed: %s\n",
                   status.ToString().c_str());
      std::abort();
    }
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~ServerHarness() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestShutdown();
      thread_.join();
    }
  }

  int port() const { return server_->port(); }
  serve::InferenceEngine& engine() { return engine_; }
  Server& server() { return *server_; }

  ClientOptions client_options() const {
    ClientOptions options;
    options.port = port();
    return options;
  }

 private:
  serve::InferenceEngine engine_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

}  // namespace tpgnn::net

#endif  // TPGNN_TESTS_NET_NET_TEST_UTIL_H_
