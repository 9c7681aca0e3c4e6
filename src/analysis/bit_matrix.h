// A dense n x n boolean matrix stored as one row of uint64_t words per
// vertex, with an in-place transitive closure. It backs both the CFG's
// strict block reachability and the dependency graph's S1 ⇝* S2 relation.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gallium::analysis {

class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(int n)
      : n_(n), words_((n + 63) / 64), bits_(static_cast<size_t>(n) * words_) {}

  int words_per_row() const { return words_; }

  void Set(int row, int col) {
    Row(row)[col / 64] |= uint64_t{1} << (col % 64);
  }
  bool Test(int row, int col) const {
    return (Row(row)[col / 64] >> (col % 64)) & 1;
  }

  // Column c of a row is bit c % 64 of word c / 64; bits past n stay zero.
  uint64_t* Row(int row) { return &bits_[static_cast<size_t>(row) * words_]; }
  const uint64_t* Row(int row) const {
    return &bits_[static_cast<size_t>(row) * words_];
  }

  // Calls fn(col) for every set column of `row`, in increasing order.
  template <typename Fn>
  void ForEachInRow(int row, Fn&& fn) const {
    const uint64_t* r = Row(row);
    for (int w = 0; w < words_; ++w) {
      for (uint64_t bits = r[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + std::countr_zero(bits));
      }
    }
  }

  // Replaces the relation with its transitive closure, so (i, j) holds iff
  // a path of length >= 1 leads from i to j (i reaches itself only through
  // a cycle). Warshall's algorithm, 64 columns per word: for each k, every
  // row that reaches k absorbs row k. O(n^3 / 64).
  void TransitiveClosure() {
    for (int k = 0; k < n_; ++k) {
      const uint64_t* row_k = Row(k);
      for (int i = 0; i < n_; ++i) {
        if (!Test(i, k)) continue;
        uint64_t* row_i = Row(i);
        for (int w = 0; w < words_; ++w) row_i[w] |= row_k[w];
      }
    }
  }

 private:
  int n_ = 0;
  int words_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace gallium::analysis
