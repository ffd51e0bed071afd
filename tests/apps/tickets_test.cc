// Ticket seller (Listing 5): threshold-based dynamic consistency selection, overselling
// prevention, revocation accounting.
#include "src/apps/tickets.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "src/harness/deployment.h"

namespace icg {
namespace {

class TicketsTest : public ::testing::Test {
 protected:
  TicketsTest() : world_(5, 0.0) {
    stack_ = MakeZooKeeperStack(world_, ZabConfig{}, Region::kFrankfurt, Region::kFrankfurt,
                                Region::kIreland);
  }

  TicketConfig Config(int64_t stock, int64_t threshold) {
    TicketConfig c;
    c.event = "show";
    c.stock = stock;
    c.threshold = threshold;
    return c;
  }

  SimWorld world_;
  std::optional<ZooKeeperStack> stack_;
};

TEST_F(TicketsTest, FastPathWhenStockPlentiful) {
  stack_->cluster->PreloadQueue("show", 100, "t");
  TicketSeller seller(stack_->client.get(), Config(100, 20));
  PurchaseOutcome outcome;
  seller.PurchaseTicket([&](PurchaseOutcome o) { outcome = o; });
  world_.loop().Run();
  EXPECT_TRUE(outcome.purchased);
  EXPECT_TRUE(outcome.via_preliminary);
  EXPECT_EQ(outcome.ticket_seq, 0);
  EXPECT_LT(outcome.latency, Millis(10));  // local-RTT decision
  EXPECT_EQ(seller.preliminary_purchases(), 1);
}

TEST_F(TicketsTest, FinalPathNearStockEnd) {
  stack_->cluster->PreloadQueue("show", 10, "t");
  TicketSeller seller(stack_->client.get(), Config(10, 20));  // threshold > remaining
  PurchaseOutcome outcome;
  seller.PurchaseTicket([&](PurchaseOutcome o) { outcome = o; });
  world_.loop().Run();
  EXPECT_TRUE(outcome.purchased);
  EXPECT_FALSE(outcome.via_preliminary);
  EXPECT_GT(outcome.latency, Millis(30));  // waited for the Zab commit
  EXPECT_EQ(seller.final_purchases(), 1);
}

TEST_F(TicketsTest, SoldOutReported) {
  TicketSeller seller(stack_->client.get(), Config(0, 5));
  PurchaseOutcome outcome;
  seller.PurchaseTicket([&](PurchaseOutcome o) { outcome = o; });
  world_.loop().Run();
  EXPECT_FALSE(outcome.purchased);
  EXPECT_TRUE(outcome.sold_out);
}

TEST_F(TicketsTest, ExactlyStockTicketsSoldUnderContention) {
  constexpr int64_t kStock = 40;
  stack_->cluster->PreloadQueue("show", kStock, "t");
  std::vector<ZooKeeperClientEndpoint> endpoints;
  std::vector<std::unique_ptr<TicketSeller>> sellers;
  for (int i = 0; i < 4; ++i) {
    endpoints.push_back(
        AddZooKeeperClient(world_, *stack_, Region::kFrankfurt, Region::kFrankfurt));
    sellers.push_back(
        std::make_unique<TicketSeller>(endpoints.back().client.get(), Config(kStock, 8)));
  }
  std::set<int64_t> sold;
  int64_t duplicates = 0;
  std::vector<std::shared_ptr<std::function<void()>>> loops;
  for (auto& seller : sellers) {
    // `loops` owns each purchase loop for the whole test; the closures refer to it by
    // raw pointer so no loop owns itself.
    auto next = std::make_shared<std::function<void()>>();
    TicketSeller* s = seller.get();
    *next = [s, next = next.get(), &sold, &duplicates]() {
      s->PurchaseTicket([next, &sold, &duplicates](PurchaseOutcome o) {
        if (o.purchased) {
          if (!sold.insert(o.ticket_seq).second) {
            duplicates++;
          }
          (*next)();
        }
      });
    };
    loops.push_back(next);
    (*next)();
  }
  world_.loop().Run();
  EXPECT_EQ(duplicates, 0);
  EXPECT_EQ(sold.size(), static_cast<size_t>(kStock));  // every ticket sold exactly once
  int64_t revocations = 0;
  for (const auto& seller : sellers) {
    revocations += seller->revocations();
  }
  EXPECT_LE(revocations, 6);  // the paper's observed maximum
}

TEST_F(TicketsTest, ThresholdBoundaryRespected) {
  // With stock 30 and threshold 25, only the first few tickets qualify for the fast
  // path (remaining-after must exceed 25).
  stack_->cluster->PreloadQueue("show", 30, "t");
  TicketSeller seller(stack_->client.get(), Config(30, 25));
  std::vector<bool> fast;
  std::function<void()> next = [&]() {
    seller.PurchaseTicket([&](PurchaseOutcome o) {
      if (o.purchased) {
        fast.push_back(o.via_preliminary);
        next();
      }
    });
  };
  next();
  world_.loop().Run();
  ASSERT_EQ(fast.size(), 30u);
  // Tickets 0..3 leave >25 remaining; from ticket 4 on, the seller waits for finals.
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], i < 4) << "ticket " << i;
  }
}

TEST_F(TicketsTest, ZkModeNeverUsesFastPath) {
  stack_->cluster->PreloadQueue("show", 50, "t");
  // threshold > stock disables the preliminary path entirely (the ZK baseline).
  TicketSeller seller(stack_->client.get(), Config(50, 51));
  PurchaseOutcome outcome;
  seller.PurchaseTicket([&](PurchaseOutcome o) { outcome = o; });
  world_.loop().Run();
  EXPECT_TRUE(outcome.purchased);
  EXPECT_FALSE(outcome.via_preliminary);
}

}  // namespace
}  // namespace icg
