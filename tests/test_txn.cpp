// Unit tests: fragmentation model — fragments, slots, plans, batches.
#include <gtest/gtest.h>

#include "txn/batch.hpp"
#include "txn/procedure.hpp"

namespace quecc::txn {
namespace {

frag_status noop_logic(const fragment&, txn_desc&, frag_host&) {
  return frag_status::ok;
}

procedure make_proc(std::uint16_t slots = 4) {
  return procedure("test", &noop_logic, slots);
}

fragment make_frag(std::uint16_t idx, op_kind kind = op_kind::read) {
  fragment f;
  f.idx = idx;
  f.kind = kind;
  f.key = idx;
  return f;
}

TEST(Fragment, UpdatesDatabaseClassification) {
  EXPECT_FALSE(make_frag(0, op_kind::read).updates_database());
  EXPECT_TRUE(make_frag(0, op_kind::update).updates_database());
  EXPECT_TRUE(make_frag(0, op_kind::insert).updates_database());
  EXPECT_TRUE(make_frag(0, op_kind::erase).updates_database());
}

TEST(TxnDesc, SlotProduceConsume) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(4);
  EXPECT_FALSE(t.inputs_ready(0b0101));
  t.produce(0, 11);
  t.produce(2, 22);
  EXPECT_TRUE(t.inputs_ready(0b0101));
  EXPECT_FALSE(t.inputs_ready(0b0010));
  EXPECT_EQ(t.slot_value(0), 11u);
  EXPECT_EQ(t.slot_value(2), 22u);
}

TEST(TxnDesc, ResetClearsRuntime) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(2);
  auto f = make_frag(0);
  f.abortable = true;
  t.frags.push_back(f);
  t.frags.push_back(make_frag(1, op_kind::update));
  t.reset_runtime();
  EXPECT_EQ(t.pending_abortables.load(), 1u);

  t.produce(0, 5);
  t.mark_aborted();
  t.reset_runtime();
  EXPECT_FALSE(t.aborted());
  EXPECT_FALSE(t.inputs_ready(0b01));
}

TEST(TxnDesc, AbortableUpdaterRejected) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  auto f = make_frag(0, op_kind::update);
  f.abortable = true;
  t.frags.push_back(f);
  EXPECT_THROW(t.reset_runtime(), std::logic_error);
}

TEST(TxnDesc, TooManySlotsRejected) {
  txn_desc t;
  EXPECT_THROW(t.resize_slots(65), std::length_error);
  EXPECT_NO_THROW(t.resize_slots(64));
}

TEST(TxnDesc, ResultFingerprintIncludesStatusAndSlots) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(2);
  t.produce(1, 77);
  const auto fp = t.result_fingerprint();
  ASSERT_EQ(fp.size(), 3u);
  EXPECT_EQ(fp[0], static_cast<std::uint64_t>(txn_status::active));
  EXPECT_EQ(fp[2], 77u);
}

TEST(ValidatePlan, AcceptsWellFormed) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(4);
  auto f0 = make_frag(0);
  f0.abortable = true;
  auto f1 = make_frag(1);
  f1.output_slot = 0;
  auto f2 = make_frag(2, op_kind::update);
  f2.input_mask = 0b1;
  f2.output_slot = 1;
  t.frags = {f0, f1, f2};
  EXPECT_NO_THROW(validate_plan(t));
}

TEST(ValidatePlan, RejectsForwardDataDependency) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(4);
  auto f0 = make_frag(0);
  f0.input_mask = 0b1;  // consumes slot nobody produced yet
  auto f1 = make_frag(1);
  f1.output_slot = 0;
  t.frags = {f0, f1};
  EXPECT_THROW(validate_plan(t), std::logic_error);
}

TEST(ValidatePlan, RejectsDuplicateOutputSlot) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(4);
  auto f0 = make_frag(0);
  f0.output_slot = 2;
  auto f1 = make_frag(1);
  f1.output_slot = 2;
  t.frags = {f0, f1};
  EXPECT_THROW(validate_plan(t), std::logic_error);
}

TEST(ValidatePlan, RejectsOutOfRangeSlot) {
  auto proc = make_proc(2);
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(2);
  auto f0 = make_frag(0);
  f0.output_slot = 5;
  t.frags = {f0};
  EXPECT_THROW(validate_plan(t), std::logic_error);
}

TEST(ValidatePlan, RejectsAbortableAfterUpdate) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.resize_slots(4);
  auto f0 = make_frag(0, op_kind::update);
  auto f1 = make_frag(1);
  f1.abortable = true;
  t.frags = {f0, f1};
  EXPECT_THROW(validate_plan(t), std::logic_error);
}

TEST(ValidatePlan, RejectsBadIdxOrder) {
  auto proc = make_proc();
  txn_desc t;
  t.proc = &proc;
  t.frags = {make_frag(1)};
  EXPECT_THROW(validate_plan(t), std::logic_error);
}

TEST(Batch, AssignsSequenceAndIds) {
  auto proc = make_proc();
  batch b(9);
  for (int i = 0; i < 3; ++i) {
    auto t = std::make_unique<txn_desc>();
    t->proc = &proc;
    t->frags.push_back(make_frag(0));
    b.add(std::move(t));
  }
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.at(2).seq, 2u);
  EXPECT_EQ(txn_id_batch(b.at(2).id), 9u);
  EXPECT_EQ(txn_id_seq(b.at(2).id), 2u);
  EXPECT_NO_THROW(b.validate());
}

TEST(Batch, ResetRuntimeRestoresAllTxns) {
  auto proc = make_proc();
  batch b;
  auto t = std::make_unique<txn_desc>();
  t->proc = &proc;
  t->frags.push_back(make_frag(0));
  auto& ref = b.add(std::move(t));
  ref.mark_aborted();
  b.reset_runtime();
  EXPECT_FALSE(b.at(0).aborted());
}

}  // namespace
}  // namespace quecc::txn
