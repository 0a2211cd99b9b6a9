#include "flow/classifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "net/packet_batch.hpp"
#include "stats/rng.hpp"

namespace fbm::flow {
namespace {

net::PacketRecord packet(double ts, std::uint16_t src_port = 1000,
                         std::uint32_t bytes = 100,
                         std::uint8_t dst_last_octet = 1) {
  net::PacketRecord p;
  p.timestamp = ts;
  p.tuple.src = net::Ipv4Address(10, 0, 0, 1);
  p.tuple.dst = net::Ipv4Address(20, 0, 0, dst_last_octet);
  p.tuple.src_port = src_port;
  p.tuple.dst_port = 80;
  p.tuple.protocol = 6;
  p.size_bytes = bytes;
  return p;
}

TEST(Classifier, GroupsPacketsOfSameTuple) {
  FiveTupleClassifier c;
  c.add(packet(0.0));
  c.add(packet(1.0));
  c.add(packet(2.5));
  c.flush();
  ASSERT_EQ(c.flows().size(), 1u);
  const FlowRecord& f = c.flows()[0];
  EXPECT_DOUBLE_EQ(f.start, 0.0);
  EXPECT_DOUBLE_EQ(f.end, 2.5);
  EXPECT_DOUBLE_EQ(f.duration(), 2.5);
  EXPECT_EQ(f.size_bytes, 300u);
  EXPECT_EQ(f.packets, 3u);
}

TEST(Classifier, DistinctTuplesAreDistinctFlows) {
  FiveTupleClassifier c;
  c.add(packet(0.0, 1000));
  c.add(packet(0.1, 2000));
  c.flush();
  EXPECT_EQ(c.counters().single_packet_discards, 2u);
  EXPECT_TRUE(c.flows().empty());  // both single-packet
}

TEST(Classifier, TimeoutSplitsFlow) {
  ClassifierOptions opt;
  opt.timeout = 60.0;
  FiveTupleClassifier c(opt);
  c.add(packet(0.0));
  c.add(packet(10.0));
  c.add(packet(100.0));  // > 60 s gap: new flow
  c.add(packet(101.0));
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_DOUBLE_EQ(c.flows()[0].duration(), 10.0);
  EXPECT_DOUBLE_EQ(c.flows()[1].start, 100.0);
}

TEST(Classifier, GapExactlyAtTimeoutDoesNotSplit) {
  FiveTupleClassifier c;
  c.add(packet(0.0));
  c.add(packet(60.0));  // exactly the timeout: same flow
  c.flush();
  ASSERT_EQ(c.flows().size(), 1u);
  EXPECT_EQ(c.flows()[0].packets, 2u);
}

TEST(Classifier, SinglePacketFlowDiscardedByDefault) {
  FiveTupleClassifier c;
  c.add(packet(0.0));
  c.flush();
  EXPECT_TRUE(c.flows().empty());
  EXPECT_EQ(c.counters().single_packet_discards, 1u);
}

TEST(Classifier, SinglePacketFlowKeptWhenConfigured) {
  ClassifierOptions opt;
  opt.discard_single_packet = false;
  FiveTupleClassifier c(opt);
  c.add(packet(0.0));
  c.flush();
  ASSERT_EQ(c.flows().size(), 1u);
  EXPECT_DOUBLE_EQ(c.flows()[0].duration(), 0.0);
}

TEST(Classifier, RecordsDiscardedPackets) {
  ClassifierOptions opt;
  opt.record_discards = true;
  FiveTupleClassifier c(opt);
  c.add(packet(3.0, 1000, 77));
  c.flush();
  ASSERT_EQ(c.discards().size(), 1u);
  EXPECT_DOUBLE_EQ(c.discards()[0].timestamp, 3.0);
  EXPECT_EQ(c.discards()[0].size_bytes, 77u);
}

TEST(Classifier, IntervalBoundarySplitsAndFlags) {
  ClassifierOptions opt;
  opt.interval = 10.0;
  FiveTupleClassifier c(opt);
  c.add(packet(8.0));
  c.add(packet(9.0));
  c.add(packet(11.0));  // next interval: piece 2, continued
  c.add(packet(12.0));
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_FALSE(c.flows()[0].continued);
  EXPECT_TRUE(c.flows()[1].continued);
  EXPECT_DOUBLE_EQ(c.flows()[1].start, 11.0);
  EXPECT_EQ(c.counters().boundary_splits, 1u);
}

TEST(Classifier, NegativeTimestampsUseFlooredIntervalIndex) {
  // Truncation toward zero would lump [-10, 10) into one interval index 0;
  // floor puts -5 into index -1, so crossing zero splits the flow.
  ClassifierOptions opt;
  opt.interval = 10.0;
  FiveTupleClassifier c(opt);
  c.add(packet(-5.0));
  c.add(packet(-1.0));
  c.add(packet(1.0));  // index -1 -> 0: boundary split
  c.add(packet(5.0));
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_DOUBLE_EQ(c.flows()[0].start, -5.0);
  EXPECT_DOUBLE_EQ(c.flows()[0].end, -1.0);
  EXPECT_FALSE(c.flows()[0].continued);
  EXPECT_TRUE(c.flows()[1].continued);
  EXPECT_DOUBLE_EQ(c.flows()[1].start, 1.0);
  EXPECT_EQ(c.counters().boundary_splits, 1u);
}

TEST(Classifier, NegativeBoundaryMultipleStartsItsOwnInterval) {
  // floor(-10 / 10) = -1 exactly: a packet at the boundary belongs to the
  // interval it opens, mirroring the non-negative convention.
  ClassifierOptions opt;
  opt.interval = 10.0;
  FiveTupleClassifier c(opt);
  c.add(packet(-12.0));  // index -2
  c.add(packet(-10.0));  // index -1: split exactly at the multiple
  c.add(packet(-9.0));
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_DOUBLE_EQ(c.flows()[1].start, -10.0);
  EXPECT_EQ(c.flows()[1].packets, 2u);
}

TEST(Classifier, ExactBoundaryMultipleStartsItsOwnInterval) {
  ClassifierOptions opt;
  opt.interval = 10.0;
  FiveTupleClassifier c(opt);
  c.add(packet(9.0));
  c.add(packet(9.5));
  c.add(packet(10.0));  // exactly k * interval: the next interval
  c.add(packet(10.5));
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_DOUBLE_EQ(c.flows()[1].start, 10.0);
  EXPECT_EQ(c.counters().boundary_splits, 1u);
}

TEST(Classifier, SinglePacketContinuationPieceKept) {
  // The paper discards single-packet *flows*; a one-packet continuation
  // piece belongs to a multi-packet flow, so it must survive.
  ClassifierOptions opt;
  opt.interval = 10.0;
  FiveTupleClassifier c(opt);
  c.add(packet(8.0));
  c.add(packet(9.0));
  c.add(packet(11.0));  // lone packet of piece 2
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_TRUE(c.flows()[1].continued);
  EXPECT_EQ(c.flows()[1].packets, 1u);
  EXPECT_EQ(c.counters().single_packet_discards, 0u);
}

TEST(Classifier, SinglePacketLeadPieceKeptWhenFlowContinues) {
  // Two-packet flow straddling the boundary: both one-packet pieces belong
  // to a two-packet flow and are kept.
  ClassifierOptions opt;
  opt.interval = 10.0;
  FiveTupleClassifier c(opt);
  c.add(packet(9.0));
  c.add(packet(11.0));
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_FALSE(c.flows()[0].continued);
  EXPECT_TRUE(c.flows()[1].continued);
  EXPECT_EQ(c.counters().single_packet_discards, 0u);
}

TEST(Classifier, TrueSinglePacketFlowStillDiscardedAcrossIntervals) {
  // An isolated packet with no continuation on either side stays a
  // single-packet flow and is discarded as before.
  ClassifierOptions opt;
  opt.interval = 10.0;
  opt.timeout = 5.0;
  FiveTupleClassifier c(opt);
  c.add(packet(9.0));
  c.add(packet(19.0));  // gap 10 > timeout: NOT a continuation
  c.add(packet(19.5));
  c.flush();
  ASSERT_EQ(c.flows().size(), 1u);  // the {19.0, 19.5} flow
  EXPECT_EQ(c.counters().single_packet_discards, 1u);
}

TEST(Classifier, TimeoutAcrossBoundaryIsNotContinuation) {
  ClassifierOptions opt;
  opt.interval = 10.0;
  opt.timeout = 5.0;
  FiveTupleClassifier c(opt);
  c.add(packet(1.0));
  c.add(packet(2.0));
  c.add(packet(19.0));  // gap 17 > timeout AND crossed: plain new flow
  c.add(packet(19.5));
  c.flush();
  ASSERT_EQ(c.flows().size(), 2u);
  EXPECT_FALSE(c.flows()[1].continued);
}

TEST(Classifier, RejectsOutOfOrderPackets) {
  FiveTupleClassifier c;
  c.add(packet(5.0));
  EXPECT_THROW(c.add(packet(4.0)), std::invalid_argument);
}

TEST(Classifier, OptionValidation) {
  ClassifierOptions opt;
  opt.timeout = 0.0;
  EXPECT_THROW(FiveTupleClassifier{opt}, std::invalid_argument);
  opt = ClassifierOptions{};
  opt.interval = -1.0;
  EXPECT_THROW(FiveTupleClassifier{opt}, std::invalid_argument);
}

TEST(Classifier, PrefixKeyAggregatesAcrossPorts) {
  Prefix24Classifier c;
  // Same /24 destination, different 5-tuples.
  c.add(packet(0.0, 1000, 100, 1));
  c.add(packet(1.0, 2000, 100, 2));
  c.add(packet(2.0, 3000, 100, 3));
  c.flush();
  ASSERT_EQ(c.flows().size(), 1u);
  EXPECT_EQ(c.flows()[0].packets, 3u);
  EXPECT_EQ(c.flows()[0].size_bytes, 300u);
}

TEST(Classifier, PrefixKeySeparatesDifferentPrefixes) {
  Prefix24Classifier c;
  auto p1 = packet(0.0);
  auto p2 = packet(0.5);
  p2.tuple.dst = net::Ipv4Address(30, 0, 1, 1);  // other /24
  c.add(p1);
  c.add(p2);
  c.add(packet(1.0));
  auto p4 = packet(1.5);
  p4.tuple.dst = net::Ipv4Address(30, 0, 1, 9);
  c.add(p4);
  c.flush();
  EXPECT_EQ(c.flows().size(), 2u);
}

TEST(Classifier, CustomPrefixLengthEight) {
  FlowClassifier<PrefixKey<8>> c;
  auto p1 = packet(0.0);
  auto p2 = packet(0.5);
  p2.tuple.dst = net::Ipv4Address(20, 99, 99, 99);  // same /8
  c.add(p1);
  c.add(p2);
  c.flush();
  ASSERT_EQ(c.flows().size(), 1u);
}

TEST(Classifier, ExpireIdleEmitsOnlyStaleFlows) {
  ClassifierOptions opt;
  opt.timeout = 10.0;
  FiveTupleClassifier c(opt);
  c.add(packet(0.0, 1000));
  c.add(packet(1.0, 1000));
  c.add(packet(5.0, 2000));
  c.add(packet(6.0, 2000));
  c.expire_idle(12.0);  // flow A idle 11 s > 10; flow B idle 6 s
  ASSERT_EQ(c.flows().size(), 1u);
  EXPECT_DOUBLE_EQ(c.flows()[0].end, 1.0);
  EXPECT_EQ(c.active_flows(), 1u);
}

TEST(Classifier, ExpireIdleThenFlushCoversEverything) {
  FiveTupleClassifier c;
  c.add(packet(0.0, 1000));
  c.add(packet(0.5, 1000));
  c.expire_idle(1000.0);
  c.flush();
  EXPECT_EQ(c.flows().size(), 1u);  // not emitted twice
}

TEST(Classifier, ActiveFlowsTracked) {
  FiveTupleClassifier c;
  c.add(packet(0.0, 1000));
  c.add(packet(0.1, 2000));
  EXPECT_EQ(c.active_flows(), 2u);
  c.flush();
  EXPECT_EQ(c.active_flows(), 0u);
}

TEST(Classifier, CountersPacketsTotal) {
  FiveTupleClassifier c;
  for (int i = 0; i < 5; ++i) c.add(packet(0.1 * i));
  c.flush();
  EXPECT_EQ(c.counters().packets, 5u);
  EXPECT_EQ(c.counters().flows_emitted, 1u);
}

TEST(ClassifyAll, SortsFlowsByStartTime) {
  std::vector<net::PacketRecord> packets;
  // Flow B starts later but ends (times out) earlier than flow A's end.
  packets.push_back(packet(0.0, 1000));
  packets.push_back(packet(0.5, 2000));
  packets.push_back(packet(1.0, 2000));
  packets.push_back(packet(70.0, 1000));   // still flow A? gap 70 > 60: no
  packets.push_back(packet(70.5, 1000));
  ClassifierCounters counters;
  const auto flows =
      classify_all<FiveTupleKey>(packets, ClassifierOptions{}, &counters);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_LE(flows[0].start, flows[1].start);
  EXPECT_EQ(counters.packets, 5u);
}

TEST(Classifier, RoutableKeyGroupsByFibEntry) {
  net::RoutingTable fib;
  fib.insert(net::Prefix(net::Ipv4Address(20, 0, 0, 0), 8), 1);
  fib.insert(net::Prefix(net::Ipv4Address(30, 1, 0, 0), 16), 2);

  FlowClassifier<RoutableKey> c(RoutableKey(&fib), ClassifierOptions{});
  // Two destinations inside 20/8 -> one flow; one in 30.1/16 -> another.
  auto p1 = packet(0.0);
  p1.tuple.dst = net::Ipv4Address(20, 5, 5, 5);
  auto p2 = packet(0.5);
  p2.tuple.dst = net::Ipv4Address(20, 200, 1, 1);
  auto p3 = packet(1.0);
  p3.tuple.dst = net::Ipv4Address(30, 1, 7, 7);
  auto p4 = packet(1.5);
  p4.tuple.dst = net::Ipv4Address(30, 1, 8, 8);
  c.add(p1);
  c.add(p2);
  c.add(p3);
  c.add(p4);
  c.flush();
  EXPECT_EQ(c.flows().size(), 2u);
}

TEST(Classifier, RoutableKeyFallsBackToSlash24) {
  net::RoutingTable fib;  // empty: nothing routable
  RoutableKey key(&fib);
  auto p = packet(0.0);
  p.tuple.dst = net::Ipv4Address(99, 1, 2, 3);
  EXPECT_EQ(key(p.tuple), net::Prefix(net::Ipv4Address(99, 1, 2, 0), 24));
}

TEST(Classifier, RoutableKeyRejectsNullTable) {
  EXPECT_THROW(RoutableKey{nullptr}, std::invalid_argument);
}

TEST(Classifier, RoutableKeyBatchMatchesPerPacket) {
  // Nested routes (a /8 holding a /16 holding a /24, a /25 and a /32) plus
  // destinations that no route covers (they key on their /24), with timeout
  // gaps, interval crossings and lone packets: add_batch at every batch
  // size must emit exactly what add() per packet does.
  net::RoutingTable fib;
  fib.insert(net::Prefix(net::Ipv4Address(10, 0, 0, 0), 8), 1);
  fib.insert(net::Prefix(net::Ipv4Address(10, 1, 0, 0), 16), 2);
  fib.insert(net::Prefix(net::Ipv4Address(10, 1, 2, 0), 24), 3);
  fib.insert(net::Prefix(net::Ipv4Address(10, 1, 2, 128), 25), 4);
  fib.insert(net::Prefix(net::Ipv4Address(10, 1, 2, 200), 32), 5);
  fib.insert(net::Prefix(net::Ipv4Address(172, 16, 0, 0), 12), 6);
  const net::Ipv4Address dsts[] = {
      net::Ipv4Address(10, 9, 9, 9),         // /8
      net::Ipv4Address(10, 1, 7, 7),         // /16
      net::Ipv4Address(10, 1, 2, 5),         // /24
      net::Ipv4Address(10, 1, 2, 130),       // /25
      net::Ipv4Address(10, 1, 2, 200),       // /32
      net::Ipv4Address(10, 1, 2, 201),       // /25 next to the /32
      net::Ipv4Address(172, 31, 0, 1),       // /12
      net::Ipv4Address(172, 32, 0, 1),       // no route
      net::Ipv4Address(99, 1, 2, 3),         // no route
      net::Ipv4Address(99, 1, 2, 250),       // no route, same /24
      net::Ipv4Address(200, 0, 0, 1),        // no route
      net::Ipv4Address(255, 255, 255, 255),  // no route
  };

  stats::Rng rng(2024);
  std::vector<net::PacketRecord> packets;
  double t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    // Mostly sub-timeout gaps, occasionally a gap past the 1 s timeout.
    t += rng.uniform_int(0, 19) == 0 ? 1.5 : rng.exponential(200.0);
    auto p = packet(t, static_cast<std::uint16_t>(rng.uniform_int(0, 3)),
                    static_cast<std::uint32_t>(rng.uniform_int(40, 1500)));
    p.tuple.dst = dsts[rng.uniform_int(0, std::size(dsts) - 1)];
    packets.push_back(p);
  }

  ClassifierOptions options;
  options.timeout = 1.0;
  options.interval = 2.0;
  options.record_discards = true;
  FlowClassifier<RoutableKey> reference(RoutableKey(&fib), options);
  for (const auto& p : packets) reference.add(p);
  reference.flush();

  for (const std::size_t batch_size : {1u, 7u, 1024u}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    FlowClassifier<RoutableKey> c(RoutableKey(&fib), options);
    net::PacketBatch batch;
    for (std::size_t i = 0; i < packets.size(); i += batch_size) {
      const std::size_t n = std::min(batch_size, packets.size() - i);
      batch.assign(std::span(packets).subspan(i, n));
      c.add_batch(batch);
    }
    c.flush();
    ASSERT_EQ(c.flows().size(), reference.flows().size());
    for (std::size_t i = 0; i < c.flows().size(); ++i) {
      const FlowRecord& a = c.flows()[i];
      const FlowRecord& b = reference.flows()[i];
      EXPECT_EQ(a.start, b.start) << i;
      EXPECT_EQ(a.end, b.end) << i;
      EXPECT_EQ(a.size_bytes, b.size_bytes) << i;
      EXPECT_EQ(a.packets, b.packets) << i;
      EXPECT_EQ(a.continued, b.continued) << i;
    }
    ASSERT_EQ(c.discards().size(), reference.discards().size());
    for (std::size_t i = 0; i < c.discards().size(); ++i) {
      EXPECT_EQ(c.discards()[i].timestamp, reference.discards()[i].timestamp);
      EXPECT_EQ(c.discards()[i].size_bytes, reference.discards()[i].size_bytes);
    }
    EXPECT_EQ(c.counters().packets, reference.counters().packets);
    EXPECT_EQ(c.counters().flows_emitted, reference.counters().flows_emitted);
    EXPECT_EQ(c.counters().single_packet_discards,
              reference.counters().single_packet_discards);
    EXPECT_EQ(c.counters().boundary_splits,
              reference.counters().boundary_splits);
  }
  // The workload exercises what it claims to.
  EXPECT_GT(reference.counters().boundary_splits, 0u);
  EXPECT_GT(reference.counters().single_packet_discards, 0u);
  EXPECT_GT(reference.flows().size(), 100u);
}

TEST(FlowRecord, MeanRate) {
  FlowRecord f;
  f.start = 0.0;
  f.end = 2.0;
  f.size_bytes = 1000;
  EXPECT_DOUBLE_EQ(f.mean_rate_bps(), 4000.0);
  f.end = 0.0;
  EXPECT_DOUBLE_EQ(f.mean_rate_bps(), 0.0);
}

}  // namespace
}  // namespace fbm::flow
