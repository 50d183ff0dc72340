// UDP sensor fan-in: record/replay over an unreliable transport.
//
// Three sensor VMs stream readings to a collector over UDP; the network
// drops, duplicates and reorders datagrams.  The collector's aggregate
// therefore depends on exactly which datagrams arrived, in which order —
// unreproducible by rerunning.  DejaVu tags each datagram with its
// DGnetworkEventId, logs the delivered sequence, and replays it exactly
// (over a pseudo-reliable UDP layer), regardless of what the network does
// during replay.

#include <cstdio>
#include <thread>

#include "core/session.h"
#include "vm/datagram_api.h"
#include "vm/shared_var.h"

namespace {

constexpr int kSensors = 3;
constexpr int kReadingsPerSensor = 30;
constexpr int kSamplesCollected = 40;
constexpr djvu::net::Port kCollectorPort = 9900;

using namespace djvu;

std::uint64_t g_aggregate = 0;
std::vector<int> g_sources;

core::Session make_sensors() {
  core::SessionConfig cfg;
  cfg.net.udp.loss_prob = 0.25;
  cfg.net.udp.dup_prob = 0.15;
  cfg.net.udp.delay = {std::chrono::microseconds(0),
                       std::chrono::microseconds(400)};
  core::Session s(cfg);

  s.add_vm("collector", 1, true, [](vm::Vm& v) {
    vm::DatagramSocket sock(v, kCollectorPort);
    vm::SharedVar<std::uint64_t> aggregate(v, 0);
    g_sources.clear();
    for (int i = 0; i < kSamplesCollected; ++i) {
      vm::DatagramPacket p = sock.receive();
      ByteReader r(p.data);
      std::uint64_t sensor = r.u64();
      std::uint64_t reading = r.u64();
      aggregate.set(aggregate.get() * 31 + sensor * 1000 + reading);
      g_sources.push_back(static_cast<int>(sensor));
    }
    sock.close();
    g_aggregate = aggregate.unsafe_peek();
  });

  for (int sid = 0; sid < kSensors; ++sid) {
    s.add_vm("sensor" + std::to_string(sid), 2 + sid, true, [sid](vm::Vm& v) {
      vm::DatagramSocket sock(v, static_cast<net::Port>(9000 + sid));
      // Wait for the collector to bind (a real sensor's warm-up); UDP to
      // an unbound port silently vanishes, like in a real deployment.  A
      // collector that already has its samples and closed counts as bound.
      // Replay needs no wait: its reliable layer retransmits until the
      // collector is there.
      while (v.mode() != vm::Mode::kReplay &&
             !v.network().udp_was_bound({1, kCollectorPort})) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      for (int i = 0; i < kReadingsPerSensor; ++i) {
        ByteWriter w;
        w.u64(static_cast<std::uint64_t>(sid));
        w.u64(static_cast<std::uint64_t>(sid * 100 + i));
        vm::DatagramPacket p;
        p.address = {1, kCollectorPort};
        p.data = w.take();
        sock.send(p);
      }
      sock.close();
    });
  }
  return s;
}

std::string source_summary() {
  int counts[kSensors] = {};
  for (int s : g_sources) counts[s]++;
  char buf[128];
  std::snprintf(buf, sizeof buf, "s0:%d s1:%d s2:%d", counts[0], counts[1],
                counts[2]);
  return buf;
}

}  // namespace

int main() {
  std::printf("3 sensors x %d readings over lossy+duplicating UDP; "
              "collector keeps the first %d deliveries\n\n",
              kReadingsPerSensor, kSamplesCollected);

  // Two native executions usually differ.
  auto s1 = make_sensors();
  s1.record(11);
  std::uint64_t first = g_aggregate;
  std::string first_mix = source_summary();
  std::printf("execution A: aggregate=%016llx  deliveries {%s}\n",
              static_cast<unsigned long long>(first), first_mix.c_str());

  auto s2 = make_sensors();
  auto rec = s2.record(22);
  std::printf("execution B: aggregate=%016llx  deliveries {%s}%s\n",
              static_cast<unsigned long long>(g_aggregate),
              source_summary().c_str(),
              g_aggregate != first ? "  <- differs from A" : "");
  std::uint64_t recorded = g_aggregate;
  std::string recorded_mix = source_summary();

  // Replaying B reproduces B exactly — under a different network seed.
  auto s3 = make_sensors();
  auto rep = s3.replay(rec, /*seed=*/9999);
  core::verify(rec, rep);
  std::printf("replay of B: aggregate=%016llx  deliveries {%s}  — %s\n",
              static_cast<unsigned long long>(g_aggregate),
              source_summary().c_str(),
              g_aggregate == recorded && source_summary() == recorded_mix
                  ? "perfect replay"
                  : "MISMATCH");
  return g_aggregate == recorded ? 0 : 1;
}
