// ByteLedger / LinkTraffic arithmetic and the CommunicationCost bridge.
#include <gtest/gtest.h>

#include "comm/ledger.h"
#include "hfl/cost.h"

namespace mach::comm {
namespace {

TEST(LinkTraffic, AddChargesMessagesTimesBytes) {
  LinkTraffic link;
  link.add(3, 100);
  EXPECT_EQ(link.messages, 3u);
  EXPECT_EQ(link.bytes, 300u);
  link.add(0, 100);  // zero messages: no-op
  EXPECT_EQ(link.messages, 3u);
  EXPECT_EQ(link.bytes, 300u);
  link.add(2, 0);  // zero-byte messages still count as messages
  EXPECT_EQ(link.messages, 5u);
  EXPECT_EQ(link.bytes, 300u);

  LinkTraffic other;
  other.add(1, 50);
  link += other;
  EXPECT_EQ(link.messages, 6u);
  EXPECT_EQ(link.bytes, 350u);
}

TEST(ByteLedger, TotalsExcludeRetryShare) {
  ByteLedger ledger;
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger.total_bytes(), 0u);

  ledger.device_download.add(10, 40);   // 400
  ledger.device_upload.add(12, 40);     // 480 (includes 2 retransmissions)
  ledger.retry_upload.add(2, 40);       // redundant share of the 480
  ledger.probe_download.add(5, 40);     // 200
  ledger.edge_upload.add(2, 80);        // 160
  ledger.cloud_broadcast.add(2, 80);    // 160
  EXPECT_FALSE(ledger.empty());
  // retry_upload is already inside device_upload — not double-counted.
  EXPECT_EQ(ledger.total_bytes(), 400u + 480u + 200u + 160u + 160u);
  EXPECT_EQ(ledger.total_messages(), 10u + 12u + 5u + 2u + 2u);
  // Probes travel the device<->edge link too.
  EXPECT_EQ(ledger.device_link_bytes(), 400u + 480u + 200u);
}

TEST(ByteLedger, AccumulatesPerLink) {
  ByteLedger a;
  a.device_upload.add(4, 10);
  a.cloud_broadcast.add(1, 100);
  ByteLedger b;
  b.device_upload.add(6, 10);
  b.retry_upload.add(1, 10);
  a += b;
  EXPECT_EQ(a.device_upload.messages, 10u);
  EXPECT_EQ(a.device_upload.bytes, 100u);
  EXPECT_EQ(a.retry_upload.messages, 1u);
  EXPECT_EQ(a.cloud_broadcast.bytes, 100u);
}

TEST(ByteLedger, EmptyOnlyWhenNoLinkRecordedTraffic) {
  ByteLedger ledger;
  EXPECT_TRUE(ledger.empty());
  ledger.retry_upload.add(1, 0);  // messages without bytes still count
  EXPECT_FALSE(ledger.empty());
}

// The CommunicationCost bridge: the ledger's bytes are what crossed the
// wire, and the fp32 counterfactual prices the ledger's own message counts.
TEST(ByteLedger, CostBridgePrefersLedgerBytes) {
  hfl::CommunicationCost cost;
  cost.model_parameters = 100;
  EXPECT_EQ(cost.assumed_fp32_bytes(), 0u);

  cost.ledger.device_download.add(10, 250);  // e.g. bf16: 2 B/param + ...
  cost.ledger.device_upload.add(10, 250);
  EXPECT_EQ(cost.ledger.total_bytes(), 5000u);
  EXPECT_EQ(cost.assumed_fp32_bytes(), 20u * 400u);  // fp32 counterfactual
}

TEST(ByteLedger, CostAccumulationMergesLedgers) {
  hfl::CommunicationCost a;
  a.model_parameters = 100;
  a.ledger.device_upload.add(3, 104);
  hfl::CommunicationCost b;
  b.model_parameters = 100;
  b.ledger.device_upload.add(2, 104);
  b.ledger.retry_upload.add(1, 104);
  a += b;
  EXPECT_EQ(a.ledger.device_upload.messages, 5u);
  EXPECT_EQ(a.ledger.device_upload.bytes, 520u);
  EXPECT_EQ(a.ledger.retry_upload.messages, 1u);
  EXPECT_FALSE(a.mixed_model_sizes);
}

}  // namespace
}  // namespace mach::comm
