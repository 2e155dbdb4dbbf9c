// Program: an optimized basic block of tuples in definition order (§2).
//
// Invariant: every tuple operand that references a tuple refers to an
// *earlier* index, so the sequence is a valid topological order of the
// dataflow — validate() checks this plus load/store well-formedness.
#pragma once

#include <string>
#include <vector>

#include "ir/timing.hpp"
#include "ir/tuple.hpp"

namespace bm {

class Program {
 public:
  Program() = default;
  explicit Program(std::uint32_t num_vars) : num_vars_(num_vars) {}

  std::uint32_t num_vars() const { return num_vars_; }
  void set_num_vars(std::uint32_t n) { num_vars_ = n; }

  /// Optional display name for a variable (defaults to var_name(v): a, b,
  /// c, ...). Used by listings only.
  void set_var_name(VarId v, std::string name);
  std::string var_display_name(VarId v) const;

  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const Tuple& operator[](std::size_t i) const { return tuples_[i]; }
  Tuple& operator[](std::size_t i) { return tuples_[i]; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Appends a tuple and returns its dense id. Operand references are
  /// checked against already-present tuples.
  TupleId append(Tuple t);

  /// Replaces the tuple list wholesale (used by optimizer passes); callers
  /// must re-establish the ordering invariant — validate() enforces it.
  void replace_all(std::vector<Tuple> tuples);

  /// Drops every tuple from index `n` on (optimizer passes compact the
  /// kept tuples to the front in place, then truncate).
  void truncate(std::size_t n);

  /// Throws bm::Error if any invariant is violated:
  ///  - tuple operands reference earlier tuples only,
  ///  - Load/Store variables are < num_vars,
  ///  - Store value operands exist.
  void validate() const;

  /// Total execution-time range of the block if run serially.
  TimeRange serial_time(const TimingModel& tm) const;

  /// Fig. 1-style listing: uid, instruction, ASAP min/max finish columns
  /// when `asap` has size() entries (pass {} to omit).
  std::string to_string(const std::vector<TimeRange>& asap = {}) const;

 private:
  std::uint32_t num_vars_ = 0;
  std::vector<Tuple> tuples_;
  std::vector<std::string> var_names_;  ///< sparse; "" = default name
};

}  // namespace bm
