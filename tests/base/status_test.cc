// Copyright 2026 The LPSGD Authors. Licensed under the Apache License 2.0.
#include "base/status.h"

#include <cstddef>
#include <iterator>

#include <gtest/gtest.h>

#include "base/statusor.h"

namespace lpsgd {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad bits");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad bits");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad bits");
}

TEST(StatusTest, FactoryFunctionsProduceExpectedCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(OkStatus(), Status());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

// Pins the transient set that both retry loops (the exchange retry
// wrapper and the durable-checkpoint writer) re-attempt. The table lists
// every StatusCode; the code one past it has no name, so a new code fails
// here until it is classified.
TEST(StatusTest, ExactlyFourCodesAreTransient) {
  const struct {
    StatusCode code;
    bool transient;
  } kTable[] = {
      {StatusCode::kOk, false},
      {StatusCode::kInvalidArgument, false},
      {StatusCode::kNotFound, false},
      {StatusCode::kAlreadyExists, false},
      {StatusCode::kOutOfRange, false},
      {StatusCode::kFailedPrecondition, false},
      {StatusCode::kUnimplemented, false},
      {StatusCode::kInternal, true},
      {StatusCode::kUnavailable, true},
      {StatusCode::kDeadlineExceeded, true},
      {StatusCode::kDataLoss, true},
      {StatusCode::kAborted, false},
  };
  for (size_t i = 0; i < std::size(kTable); ++i) {
    SCOPED_TRACE(StatusCodeToString(kTable[i].code));
    EXPECT_EQ(static_cast<size_t>(kTable[i].code), i);
    EXPECT_EQ(IsTransient(kTable[i].code), kTable[i].transient);
  }
  EXPECT_STREQ(
      StatusCodeToString(static_cast<StatusCode>(std::size(kTable))),
      "UNKNOWN");
}

Status FailsWhenNegative(int value) {
  if (value < 0) return InvalidArgumentError("negative");
  return OkStatus();
}

Status UsesReturnIfError(int value) {
  LPSGD_RETURN_IF_ERROR(FailsWhenNegative(value));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

StatusOr<int> ParsePositive(int value) {
  if (value <= 0) return OutOfRangeError("not positive");
  return value;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 7);
  EXPECT_EQ(*result, 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

StatusOr<int> DoublePositive(int value) {
  LPSGD_ASSIGN_OR_RETURN(int parsed, ParsePositive(value));
  return parsed * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  StatusOr<int> ok = DoublePositive(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  EXPECT_FALSE(DoublePositive(0).ok());
}

TEST(StatusOrTest, MoveOnlyValueWorks) {
  StatusOr<std::unique_ptr<int>> result(std::make_unique<int>(5));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> value = std::move(result).value();
  EXPECT_EQ(*value, 5);
}

}  // namespace
}  // namespace lpsgd
