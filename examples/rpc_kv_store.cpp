// A distributed key-value store: the largest example, showing how a real
// service debugs with DejaVu.
//
// Topology: one store server (3 worker threads, monitor-protected map,
// racy global version counter) and two client VMs issuing concurrent
// PUT/GET/CAS requests over a length-prefixed RPC framing on stream
// sockets.  The CAS path has a deliberate TOCTOU race on the version
// counter, so the set of successful CAS operations — and therefore the
// final store contents — varies run to run.
//
// The demo records one execution, prints its outcome fingerprint, then
// replays it twice under different network seeds and shows the identical
// fingerprint, RPC by RPC.

#include <cstdio>
#include <map>
#include <string>

#include "core/session.h"
#include "tests/test_util.h"
#include "vm/monitor.h"
#include "vm/shared_var.h"
#include "vm/socket_api.h"
#include "vm/thread.h"

namespace {

using namespace djvu;

constexpr net::Port kPort = 7777;
constexpr int kWorkers = 3;
constexpr int kClients = 2;
constexpr int kOpsPerClient = 12;

// ---------------------------------------------------------------------------
// RPC framing: [len u32][tag u8][payload]; strings are varint-prefixed.
// ---------------------------------------------------------------------------

enum class Op : std::uint8_t { kPut = 1, kGet = 2, kCas = 3 };

Bytes frame(BytesView body) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.raw(body);
  return w.take();
}

Bytes read_frame(vm::Socket& sock) {
  Bytes header = testutil::read_exactly(sock, 4);
  ByteReader hr(header);
  std::uint32_t len = hr.u32();
  return testutil::read_exactly(sock, len);
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

struct Store {
  explicit Store(vm::Vm& v) : lock(v), version(v, 0) {}
  vm::Monitor lock;
  std::map<std::string, std::string> map;  // guarded by lock
  vm::SharedVar<std::uint64_t> version;    // RACY: read outside the lock
};

void serve_connection(vm::Vm& v, Store& store, vm::Socket& sock) {
  Bytes req = read_frame(sock);
  ByteReader r(req);
  Op op = static_cast<Op>(r.u8());
  ByteWriter reply;
  switch (op) {
    case Op::kPut: {
      std::string key = r.str();
      std::string value = r.str();
      vm::Monitor::Synchronized sync(store.lock);
      store.map[key] = value;
      store.version.set(store.version.get() + 1);
      reply.u8(1).varint(store.version.unsafe_peek());
      break;
    }
    case Op::kGet: {
      std::string key = r.str();
      vm::Monitor::Synchronized sync(store.lock);
      auto it = store.map.find(key);
      reply.u8(it != store.map.end() ? 1 : 0);
      reply.str(it != store.map.end() ? it->second : "");
      break;
    }
    case Op::kCas: {
      std::string key = r.str();
      std::string value = r.str();
      std::uint64_t expected_version = r.varint();
      // BUG (deliberate): version checked OUTSIDE the monitor — a
      // concurrent PUT between the check and the update makes this CAS
      // succeed against a stale version.
      bool version_ok = store.version.get() == expected_version;
      if (version_ok) {
        vm::Monitor::Synchronized sync(store.lock);
        store.map[key] = value;
        store.version.set(store.version.get() + 1);
        reply.u8(1);
      } else {
        reply.u8(0);
      }
      break;
    }
  }
  (void)v;
  sock.output_stream().write(frame(reply.view()));
}

void server_main(vm::Vm& v) {
  vm::ServerSocket listener(v, kPort);
  Store store(v);
  std::vector<vm::VmThread> workers;
  constexpr int kTotalConns = kClients * kOpsPerClient;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back(v, [&v, &listener, &store] {
      for (int c = 0; c < kTotalConns / kWorkers; ++c) {
        auto sock = listener.accept();
        serve_connection(v, store, *sock);
        sock->close();
      }
    });
  }
  for (auto& w : workers) w.join();
  listener.close();
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

std::uint64_t g_fingerprint[kClients];

void client_main(vm::Vm& v, int id) {
  vm::SharedVar<std::uint64_t> fingerprint(v, 0);
  std::uint64_t last_version = 0;
  for (int op = 0; op < kOpsPerClient; ++op) {
    ByteWriter body;
    std::string key = "k";
    key += std::to_string(op % 4);
    if (op % 3 == 0) {
      body.u8(static_cast<std::uint8_t>(Op::kPut));
      body.str(key);
      std::string value = "v";
      value += std::to_string(id);
      value += '.';
      value += std::to_string(op);
      body.str(value);
    } else if (op % 3 == 1) {
      body.u8(static_cast<std::uint8_t>(Op::kGet));
      body.str(key);
    } else {
      body.u8(static_cast<std::uint8_t>(Op::kCas));
      body.str(key);
      body.str("cas" + std::to_string(id) + "." + std::to_string(op));
      body.varint(last_version);  // racy CAS against a stale version
    }
    auto sock = testutil::connect_retry(v, {1, kPort});
    sock->output_stream().write(frame(body.view()));
    Bytes reply = read_frame(*sock);
    sock->close();
    // Fold the reply into the fingerprint: any divergence in any RPC's
    // response changes the final value.
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint8_t b : reply) h = (h ^ b) * 1099511628211ull;
    fingerprint.set(fingerprint.get() * 31 + h);
    if (!reply.empty() && reply[0] == 1 && (op % 3 == 0)) {
      ByteReader rr(reply);
      rr.u8();
      last_version = rr.varint();
    }
  }
  g_fingerprint[id] = fingerprint.unsafe_peek();
}

core::Session make_kv_session() {
  core::SessionConfig cfg;
  cfg.net.connect_delay = {std::chrono::microseconds(0),
                           std::chrono::microseconds(400)};
  cfg.net.segmentation.mss = 16;  // frames arrive in pieces
  cfg.tuning.chaos_prob = 0.02;          // widen the CAS race window
  core::Session s(cfg);
  s.add_vm("store", 1, true, server_main);
  for (int c = 0; c < kClients; ++c) {
    s.add_vm("client" + std::to_string(c), 2 + c, true,
             [c](vm::Vm& v) { client_main(v, c); });
  }
  return s;
}

}  // namespace

int main() {
  std::printf("kv-store: %d workers, %d clients x %d RPCs "
              "(PUT/GET/racy CAS)\n\n",
              kWorkers, kClients, kOpsPerClient);

  auto s = make_kv_session();
  auto rec = s.record(17);
  std::uint64_t recorded[kClients];
  for (int c = 0; c < kClients; ++c) recorded[c] = g_fingerprint[c];
  std::printf("record  : fingerprints %016llx %016llx\n",
              static_cast<unsigned long long>(recorded[0]),
              static_cast<unsigned long long>(recorded[1]));

  bool ok = true;
  for (int i = 0; i < 2; ++i) {
    auto rs = make_kv_session();
    auto rep = rs.replay(rec, 5000 + static_cast<std::uint64_t>(i));
    core::verify(rec, rep);
    std::printf("replay %d: fingerprints %016llx %016llx — %s\n", i + 1,
                static_cast<unsigned long long>(g_fingerprint[0]),
                static_cast<unsigned long long>(g_fingerprint[1]),
                g_fingerprint[0] == recorded[0] &&
                        g_fingerprint[1] == recorded[1]
                    ? "identical responses"
                    : "MISMATCH");
    ok = ok && g_fingerprint[0] == recorded[0] &&
         g_fingerprint[1] == recorded[1];
  }
  return ok ? 0 : 1;
}
