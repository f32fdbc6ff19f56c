// Bitwise-exact checkpoint/restart of a simulation. The paper's I/O
// challenge notes that serializing the full state of a production run means
// Petabytes — which is why analysis dumps go through the lossy wavelet
// pipeline. Restart files, however, must be exact AND trustworthy: this
// module stores the raw block storage zlib-compressed (lossless) together
// with the simulation clock, written atomically through io::SafeFile
// (temp + fsync + rename) and protected by CRC32 over both the header and
// the payload, so a crash mid-write can never leave a half-written file at
// the final path and silent bit-rot is detected at load instead of being
// restored into the solver. As in the paper's I/O layer, the state is
// compressed in independent parts (zlib streams over runs of consecutive
// blocks, coded by an OpenMP team) and restored in parallel.
//
// v3 layout ("MPCFCKP3", written by save_checkpoint; all little endian):
//   off  0  magic "MPCFCKP3"                                   8 bytes
//   off  8  u32 header_crc      CRC32 of bytes [12, 72 + 8n)   4
//   off 12  i32 bx, by, bz, bs                                16
//   off 28  f64 time, extent                                  16
//   off 44  i64 steps                                          8
//   off 52  u64 raw_bytes       uncompressed payload size      8
//   off 60  u64 comp_bytes      sum of the chunk sizes         8
//   off 68  u32 n               chunk count                    4
//   off 72  n x {u32 comp_bytes, u32 crc32} chunk table        8n
//   then    the n zlib streams (level 6), back to back         comp_bytes
//
// The chunk map is a function of the grid shape alone, so the file bytes do
// not depend on the thread count: in SFC storage order, chunk c holds blocks
// [c*per, min((c+1)*per, blocks)), where per = ceil(256 KiB / block bytes)
// (one block per chunk from 32^3 blocks up, 19 blocks of 8^3). A load
// validates every size against the grid and the bytes present before
// allocating, verifies every chunk CRC before inflating, and leaves the
// grid's state untouched if anything fails (see load_grid_checkpoint).
//
// v2 ("MPCFCKP2") has the same first 68 bytes, then u32 payload_crc and a
// single zlib stream of all cells; v1 ("MPCFCKP1") is v2 without the two
// CRC fields. Both are still read, with every header field bounds-checked
// against the actual file and grid before any allocation.
#pragma once

#include <string>

#include "core/simulation.h"

namespace mpcf::io {

/// Simulation clock recovered from a checkpoint.
struct CheckpointClock {
  double time = 0;
  long steps = 0;
};

/// Serializes grid state + a clock; returns bytes written. Used directly by
/// the cluster layer (which checkpoints its gathered global grid).
std::uint64_t save_grid_checkpoint(const std::string& path, const Grid& g,
                                   double time, long steps);

/// Restores into a grid of identical shape (throws PreconditionError on any
/// mismatch, truncation, CRC or zlib failure) and returns the stored clock.
/// A v3 load inflates into the blocks' `tmp` areas and swaps them in only
/// once every chunk decoded: on failure the state (`data`) is untouched,
/// `tmp` may be clobbered. On success `tmp` is zeroed.
CheckpointClock load_grid_checkpoint(const std::string& path, Grid& g);

/// Serializes grid state + simulation clock; returns bytes written.
std::uint64_t save_checkpoint(const std::string& path, const Simulation& sim);

/// Restores into a simulation of identical shape (throws on mismatch).
void load_checkpoint(const std::string& path, Simulation& sim);

}  // namespace mpcf::io
