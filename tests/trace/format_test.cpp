#include "trace/format.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace clio::trace {
namespace {

TraceFile minimal_trace() {
  TraceFile t;
  t.header.sample_file = "sample.bin";
  t.header.num_processes = 1;
  t.header.num_files = 1;
  TraceRecord open;
  open.op = TraceOp::kOpen;
  TraceRecord read;
  read.op = TraceOp::kRead;
  read.offset = 0;
  read.length = 4096;
  read.wall_clock = 0.001;
  TraceRecord close;
  close.op = TraceOp::kClose;
  close.wall_clock = 0.002;
  t.records = {open, read, close};
  t.header.num_records = 3;
  return t;
}

/// validate() must reject `t` with a ParseError reading exactly `message`,
/// which for a record check names the offending record's index.
void expect_rejected_with(const TraceFile& t, const std::string& message) {
  try {
    validate(t);
    ADD_FAILURE() << "validate() accepted the trace";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(TraceValidate, AcceptsWellFormedTrace) {
  EXPECT_NO_THROW(validate(minimal_trace()));
}

TEST(TraceValidate, RejectsRecordCountMismatch) {
  auto t = minimal_trace();
  t.header.num_records = 99;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: header record count mismatch");
}

TEST(TraceValidate, RejectsEmptySampleName) {
  auto t = minimal_trace();
  t.header.sample_file.clear();
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: empty sample file name");
}

TEST(TraceValidate, RejectsZeroProcesses) {
  auto t = minimal_trace();
  t.header.num_processes = 0;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: num_processes must be > 0");
}

TEST(TraceValidate, RejectsPidOutOfRange) {
  auto t = minimal_trace();
  t.records[1].pid = 5;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: pid out of range at record 1");
}

TEST(TraceValidate, RejectsFidOutOfRange) {
  auto t = minimal_trace();
  t.records[1].fid = 2;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: fid out of range at record 1");
}

TEST(TraceValidate, RejectsBackwardsWallClock) {
  auto t = minimal_trace();
  t.records[2].wall_clock = 0.0001;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: wall clock goes backwards at record 2");
}

TEST(TraceValidate, RejectsZeroCount) {
  auto t = minimal_trace();
  t.records[1].count = 0;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: zero count at record 1");
}

TEST(TraceValidate, RejectsCloseWithoutOpen) {
  TraceFile t;
  t.header.sample_file = "s";
  TraceRecord close;
  close.op = TraceOp::kClose;
  t.records = {close};
  t.header.num_records = 1;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: close without open at record 0");
}

TEST(TraceValidate, RejectsBadOpCode) {
  auto t = minimal_trace();
  t.records[2].op = static_cast<TraceOp>(io::kIoTraceOpCount);
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: bad op code at record 2");
}

TEST(TraceValidate, RejectsZeroFiles) {
  auto t = minimal_trace();
  t.header.num_files = 0;
  EXPECT_THROW(validate(t), util::ParseError);
  expect_rejected_with(t, "trace: num_files must be > 0");
}

TEST(TraceValidate, AllowsNestedOpens) {
  TraceFile t;
  t.header.sample_file = "s";
  TraceRecord open;
  open.op = TraceOp::kOpen;
  TraceRecord close;
  close.op = TraceOp::kClose;
  t.records = {open, open, close, close};
  t.header.num_records = 4;
  EXPECT_NO_THROW(validate(t));
}

TEST(TraceFormat, OpNamesAreStable) {
  EXPECT_EQ(op_name(TraceOp::kOpen), "open");
  EXPECT_EQ(op_name(TraceOp::kSeek), "seek");
}

}  // namespace
}  // namespace clio::trace
