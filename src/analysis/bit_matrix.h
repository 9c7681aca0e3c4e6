// A dense boolean matrix stored as one row of uint64_t words per row, and
// the transitive closure of a graph given by its successor lists. The
// closure backs both the CFG's strict block reachability and the dependency
// graph's S1 ⇝* S2 relation; liveness keeps its register sets as rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gallium::analysis {

// A read-only view of one matrix row; column c is bit c % 64 of word c / 64.
struct BitRow {
  const uint64_t* words;
  bool operator[](size_t c) const { return (words[c / 64] >> (c % 64)) & 1; }
};

class BitMatrix {
 public:
  BitMatrix() = default;
  // An n x n matrix, or rows x cols when `cols` is given.
  explicit BitMatrix(int rows, int cols = -1)
      : words_(((cols < 0 ? rows : cols) + 63) / 64),
        bits_(static_cast<size_t>(rows) * words_) {}

  // The transitive closure of the graph whose vertex v has the direct
  // successors succs[v]: (i, j) is set iff a path of length >= 1 leads from
  // i to j (i reaches itself only through a cycle). Each row ORs in its
  // successors and their rows, in decreasing vertex order, until a pass
  // changes nothing; pass k covers the paths with fewer than k edges to a
  // lower id. Only loops edge backwards in program order, so a few passes
  // of O(E * n / 64) each replace Warshall's O(n^3 / 64).
  template <typename Int>
  static BitMatrix Closure(const std::vector<std::vector<Int>>& succs) {
    const int n = static_cast<int>(succs.size());
    BitMatrix m(n);
    for (bool changed = true; changed;) {
      changed = false;
      for (int v = n - 1; v >= 0; --v) {
        uint64_t* row = m.Row(v);
        for (const Int t : succs[v]) {
          const int c = static_cast<int>(t);
          changed = changed || !m.Test(v, c);
          m.Set(v, c);
          const uint64_t* other = m.Row(c);
          for (int w = 0; w < m.words_; ++w) {
            changed = changed || (other[w] & ~row[w]) != 0;
            row[w] |= other[w];
          }
        }
      }
    }
    return m;
  }

  int words_per_row() const { return words_; }

  void Set(int row, int col) {
    Row(row)[col / 64] |= uint64_t{1} << (col % 64);
  }
  bool Test(int row, int col) const {
    return (Row(row)[col / 64] >> (col % 64)) & 1;
  }

  // Column c of a row is bit c % 64 of word c / 64; bits past n stay zero.
  uint64_t* Row(int row) {
    return bits_.data() + static_cast<size_t>(row) * words_;
  }
  const uint64_t* Row(int row) const {
    return bits_.data() + static_cast<size_t>(row) * words_;
  }
  BitRow View(int row) const { return BitRow{Row(row)}; }

 private:
  int words_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace gallium::analysis
