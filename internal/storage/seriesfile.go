package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"dsidx/internal/series"
)

// Series file format ("DSF1"):
//
//	offset 0:  magic "DSF1" (4 bytes)
//	offset 4:  series length in points (uint32 LE)
//	offset 8:  series count (uint64 LE)
//	offset 16: count × length float32 LE values
//
// This is the raw data file the ParIS coordinator reads sequentially during
// index creation and the real-distance workers read randomly during query
// answering.

const (
	seriesFileHeaderSize = 16
	seriesFileMagic      = "DSF1"
)

// SeriesFile provides typed access to a series collection stored in a Store
// (usually a Disk, so every access is charged device time).
type SeriesFile struct {
	store  Store
	count  int64
	length int
}

// CreateSeriesFile initializes the header of an empty series file for the
// given series length.
func CreateSeriesFile(store Store, length int) (*SeriesFile, error) {
	if length <= 0 {
		return nil, fmt.Errorf("storage: invalid series length %d", length)
	}
	var hdr [seriesFileHeaderSize]byte
	copy(hdr[:4], seriesFileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(length))
	binary.LittleEndian.PutUint64(hdr[8:16], 0)
	if _, err := store.WriteAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("storage: writing header: %w", err)
	}
	return &SeriesFile{store: store, length: length}, nil
}

// OpenSeriesFile validates the header of an existing series file.
func OpenSeriesFile(store Store) (*SeriesFile, error) {
	var hdr [seriesFileHeaderSize]byte
	if _, err := store.ReadAt(hdr[:], 0); err != nil {
		return nil, corruptf("reading header: %v", err)
	}
	if string(hdr[:4]) != seriesFileMagic {
		return nil, corruptf("bad magic %q", hdr[:4])
	}
	length := int(binary.LittleEndian.Uint32(hdr[4:8]))
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if length <= 0 {
		return nil, corruptf("invalid series length %d", length)
	}
	// The count field is attacker-controlled bytes at this point. Converting
	// it to int64 first would wrap values ≥ 2^63 negative — making `need`
	// negative, passing the size check below, and returning a garbage file —
	// and even positive counts can overflow count*length*4. Bound the count
	// by what an int64 byte offset can address before any multiplication.
	maxCount := uint64((math.MaxInt64 - seriesFileHeaderSize) / (int64(length) * 4))
	if count > maxCount {
		return nil, corruptf("series count %d overflows a %d-point file", count, length)
	}
	need := seriesFileHeaderSize + int64(count)*int64(length)*4
	if store.Size() < need {
		return nil, corruptf("file size %d below required %d", store.Size(), need)
	}
	return &SeriesFile{store: store, count: int64(count), length: length}, nil
}

// Count returns the number of series in the file.
func (f *SeriesFile) Count() int64 { return f.count }

// Length returns the number of points per series.
func (f *SeriesFile) Length() int { return f.length }

// offsetOf maps a series index to its byte offset. Safe from overflow for
// any i ≤ f.count: OpenSeriesFile bounds the count so the last offset fits
// an int64, and CreateSeriesFile/Append grow count only by real writes.
func (f *SeriesFile) offsetOf(i int64) int64 {
	return seriesFileHeaderSize + i*int64(f.length)*4
}

// Append writes the series of coll after the current end of the file and
// updates the header count. Not safe for concurrent appends.
func (f *SeriesFile) Append(coll *series.Collection) error {
	if coll.SeriesLen() != f.length {
		return fmt.Errorf("storage: appending length-%d series to length-%d file",
			coll.SeriesLen(), f.length)
	}
	buf := make([]byte, coll.Len()*f.length*4)
	encodeFloat32(buf, coll.Values())
	if _, err := f.store.WriteAt(buf, f.offsetOf(f.count)); err != nil {
		return fmt.Errorf("storage: appending %d series: %w", coll.Len(), err)
	}
	f.count += int64(coll.Len())
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(f.count))
	if _, err := f.store.WriteAt(cnt[:], 8); err != nil {
		return fmt.Errorf("storage: updating count: %w", err)
	}
	return nil
}

// ReadBatch reads count series starting at index start into a collection.
// One contiguous device read, so the coordinator's sequential scan is
// charged sequential (not random) device time.
func (f *SeriesFile) ReadBatch(start, count int64) (*series.Collection, error) {
	buf := make([]byte, count*int64(f.length)*4)
	if err := f.ReadBatchBytesInto(buf, start); err != nil {
		return nil, err
	}
	values := make([]float32, count*int64(f.length))
	DecodeFloat32(values, buf)
	return series.CollectionFromValues(values, f.length)
}

// ReadBatchBytesInto reads len(buf)/(4·length) series starting at start
// as raw little-endian bytes into a caller-provided buffer, leaving decoding
// to the caller. The ParIS coordinator uses it with pooled buffers, so its
// stage-1 thread only moves bytes (as in the paper) and the CPU cost of
// decoding lands on the parallel bulk-loading workers.
func (f *SeriesFile) ReadBatchBytesInto(buf []byte, start int64) error {
	count := int64(len(buf)) / (int64(f.length) * 4)
	// start > f.count-count, not start+count > f.count: the subtraction form
	// cannot overflow (count ≥ 0 and f.count is bounded by OpenSeriesFile's
	// validation), while a huge start could wrap the addition negative.
	if start < 0 || start > f.count-count || int64(len(buf))%(int64(f.length)*4) != 0 {
		return fmt.Errorf("storage: batch [%d,%d) invalid for file of %d", start, start+count, f.count)
	}
	if _, err := f.store.ReadAt(buf, f.offsetOf(start)); err != nil {
		return fmt.Errorf("storage: reading batch at %d: %w", start, err)
	}
	return nil
}

// ReadSeries reads series i into dst (which must have the file's series
// length). Each call is one device read; non-contiguous positions pay the
// device's seek penalty — this is the random-access pattern of the
// real-distance phase of on-disk query answering.
func (f *SeriesFile) ReadSeries(i int64, dst series.Series) error {
	if i < 0 || i >= f.count {
		return fmt.Errorf("storage: series %d out of range [0,%d)", i, f.count)
	}
	if len(dst) != f.length {
		return fmt.Errorf("storage: destination length %d != %d", len(dst), f.length)
	}
	buf := make([]byte, f.length*4)
	if _, err := f.store.ReadAt(buf, f.offsetOf(i)); err != nil {
		return fmt.Errorf("storage: reading series %d: %w", i, err)
	}
	DecodeFloat32(dst, buf)
	return nil
}

// WriteCollection creates a series file in store holding all of coll.
func WriteCollection(store Store, coll *series.Collection) (*SeriesFile, error) {
	f, err := CreateSeriesFile(store, coll.SeriesLen())
	if err != nil {
		return nil, err
	}
	// Write in batches so the simulated device sees a realistic sequential
	// stream instead of one giant transfer.
	const batch = 4096
	for lo := 0; lo < coll.Len(); lo += batch {
		hi := lo + batch
		if hi > coll.Len() {
			hi = coll.Len()
		}
		if err := f.Append(coll.Slice(lo, hi)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func encodeFloat32(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
	}
}

// DecodeFloat32 decodes little-endian float32 values; len(src) must be
// 4·len(dst).
func DecodeFloat32(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
}
