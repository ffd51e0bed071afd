// Runs single-key test cases in both wire shapes. A store serves a single-key Get/Put as
// the one-entry case of the batched request, so a case defined with
// SHAPED_TEST(Fixture, Name) runs its body twice, each time on a freshly constructed
// fixture: once with Get/Put requests and once with one-key MultiGet/MultiPut requests.
// The body builds its requests with ReadOf/WriteOf, which follow `shape_`.
#ifndef ICG_TESTS_WIRE_SHAPE_H_
#define ICG_TESTS_WIRE_SHAPE_H_

#include <gtest/gtest.h>

#include <string>

#include "src/correctables/operation.h"

namespace icg {

class WireShapeTest : public ::testing::Test {
 public:
  template <typename Case>
  static void RunInBothShapes() {
    for (const WireShape shape : {WireShape::kSingle, WireShape::kBatch}) {
      SCOPED_TRACE(shape == WireShape::kSingle ? "Get/Put" : "one-key MultiGet/MultiPut");
      Case test_case;
      test_case.shape_ = shape;
      test_case.TestBody();
    }
  }

 protected:
  // `key` alone, in the wire shape under test.
  ReadRequest ReadOf(const std::string& key) const {
    return shape_ == WireShape::kSingle ? ReadRequest::Get(key) : ReadRequest::MultiGet({key});
  }
  WriteRequest WriteOf(const std::string& key, const std::string& value) const {
    return shape_ == WireShape::kSingle ? WriteRequest::Put(key, value)
                                        : WriteRequest::MultiPut({key}, {value});
  }

  WireShape shape_ = WireShape::kSingle;
};

}  // namespace icg

// Defines Fixture.Name (the test keeps its plain name) whose body runs in both shapes.
// Fixture must derive from WireShapeTest.
#define SHAPED_TEST(Fixture, Name)                                                    \
  class Fixture##_##Name##_Shaped : public Fixture {                                  \
   public:                                                                            \
    void TestBody() override;                                                         \
  };                                                                                  \
  TEST_F(Fixture, Name) { RunInBothShapes<Fixture##_##Name##_Shaped>(); }             \
  void Fixture##_##Name##_Shaped::TestBody()

#endif  // ICG_TESTS_WIRE_SHAPE_H_
