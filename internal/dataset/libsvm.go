package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// ScanLibSVM streams the LibSVM text format ("label [qid:N] idx:val
// idx:val ...", 1-based indices) through a row callback without
// materializing a Dataset — the ingestion primitive of the out-of-core
// path, where a file can be far larger than memory. Each row's entries
// are delivered sorted by column with duplicates rejected, matching
// Builder.AddRow's invariants; the indices and values slices are reused
// between callbacks and must be copied if retained. cols > 0 bounds the
// column indices; cols <= 0 accepts any index. It returns the number of
// rows delivered and the widest column count seen (max index + 1).
//
// A "qid:N" token after the label names the row's query group (the
// ranking variant of the format). The first row decides: either every
// row has a qid or none does, and the rows of one query are contiguous —
// a qid may not reappear after another. Rows are delivered with their
// qid, or with -1 in a file without qids. Labels of -1 are normalized to
// 0 only in a file without qids: ranking labels are relevance grades,
// not classes.
func ScanLibSVM(r io.Reader, cols int, fn func(indices []int32, values []float64, label float64, qid int64) error) (rows, maxCols int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var idxBuf []int32
	var valBuf []float64
	var seen map[int64]bool // the qids met so far; nil in a file without qids
	lastQid := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		label, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return rows, maxCols, fmt.Errorf("dataset: line %d: bad label %q: %w", lineNo, fields[0], err)
		}
		qid := int64(-1)
		feats := fields[1:]
		if len(feats) > 0 && strings.HasPrefix(feats[0], "qid:") {
			q, err := strconv.ParseInt(feats[0][len("qid:"):], 10, 64)
			if err != nil || q < 0 {
				return rows, maxCols, fmt.Errorf("dataset: line %d: bad qid %q", lineNo, feats[0])
			}
			qid = q
			feats = feats[1:]
		}
		if rows == 0 && qid >= 0 {
			seen = map[int64]bool{}
		}
		if (qid >= 0) != (seen != nil) {
			return rows, maxCols, fmt.Errorf("dataset: line %d: a file has a qid on every row or on none", lineNo)
		}
		if qid >= 0 && qid != lastQid {
			if seen[qid] {
				return rows, maxCols, fmt.Errorf("dataset: line %d: qid %d reappears after another group (rows of one query must be contiguous)", lineNo, qid)
			}
			seen[qid] = true
			lastQid = qid
		}
		// Normalize {-1,+1} labels to {0,1}.
		if label == -1 && qid < 0 {
			label = 0
		}
		idxBuf, valBuf = idxBuf[:0], valBuf[:0]
		for _, f := range feats {
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return rows, maxCols, fmt.Errorf("dataset: line %d: bad entry %q", lineNo, f)
			}
			idx, err := strconv.Atoi(f[:colon])
			if err != nil || idx < 1 {
				return rows, maxCols, fmt.Errorf("dataset: line %d: bad index %q", lineNo, f[:colon])
			}
			val, err := strconv.ParseFloat(f[colon+1:], 64)
			if err != nil {
				return rows, maxCols, fmt.Errorf("dataset: line %d: bad value %q: %w", lineNo, f[colon+1:], err)
			}
			j := int32(idx - 1)
			if cols > 0 && int(j) >= cols {
				return rows, maxCols, fmt.Errorf("dataset: line %d: column %d out of range [0,%d)", lineNo, j, cols)
			}
			if int(j)+1 > maxCols {
				maxCols = int(j) + 1
			}
			idxBuf = append(idxBuf, j)
			valBuf = append(valBuf, val)
		}
		if !sort.SliceIsSorted(idxBuf, func(x, y int) bool { return idxBuf[x] < idxBuf[y] }) {
			sort.Sort(&rowSorter{idx: idxBuf, vals: valBuf})
		}
		for k := 1; k < len(idxBuf); k++ {
			if idxBuf[k] == idxBuf[k-1] {
				return rows, maxCols, fmt.Errorf("dataset: line %d: duplicate column %d", lineNo, idxBuf[k])
			}
		}
		if err := fn(idxBuf, valBuf, label, qid); err != nil {
			return rows, maxCols, err
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return rows, maxCols, fmt.Errorf("dataset: reading libsvm: %w", err)
	}
	return rows, maxCols, nil
}

// rowSorter sorts a row's (index, value) pairs by column in place.
type rowSorter struct {
	idx  []int32
	vals []float64
}

func (s *rowSorter) Len() int           { return len(s.idx) }
func (s *rowSorter) Less(x, y int) bool { return s.idx[x] < s.idx[y] }
func (s *rowSorter) Swap(x, y int) {
	s.idx[x], s.idx[y] = s.idx[y], s.idx[x]
	s.vals[x], s.vals[y] = s.vals[y], s.vals[x]
}

// ReadLibSVM parses the LibSVM text format into an in-memory Dataset and
// the query-group sizes in row order, which are nil for a file without
// qid tokens (see ScanLibSVM for the rules a file must keep). cols <= 0
// infers the column count from the data. It appends straight into the
// CSR arrays as ScanLibSVM delivers rows, so peak memory is one copy of
// the data rather than the two a buffered parse would hold.
func ReadLibSVM(r io.Reader, cols int) (*Dataset, []int, error) {
	d := &Dataset{rowPtr: []int32{0}}
	var labels []float64
	var groups []int
	lastQid := int64(-1)
	rows, maxCols, err := ScanLibSVM(r, cols, func(indices []int32, values []float64, label float64, qid int64) error {
		if qid >= 0 {
			if qid != lastQid {
				groups = append(groups, 0)
				lastQid = qid
			}
			groups[len(groups)-1]++
		}
		d.colIdx = append(d.colIdx, indices...)
		d.values = append(d.values, values...)
		d.rowPtr = append(d.rowPtr, int32(len(d.colIdx)))
		labels = append(labels, label)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if cols <= 0 {
		cols = maxCols
	}
	if cols == 0 {
		return nil, nil, fmt.Errorf("dataset: no feature columns found")
	}
	d.rows = rows
	d.cols = cols
	d.Labels = labels
	return d, groups, nil
}

// WriteLibSVM writes the dataset in LibSVM format, the inverse of
// ReadLibSVM. Unlabeled datasets are written with label 0. groups, when
// not nil, holds the sizes of consecutive query groups covering every
// row exactly; group g's rows carry the token qid:g+1.
func WriteLibSVM(w io.Writer, d *Dataset, groups []int) error {
	qids, err := groupQids(groups, d.Rows())
	if err != nil {
		return err
	}
	lw := NewLibSVMWriter(w)
	for i := 0; i < d.Rows(); i++ {
		label := 0.0
		if d.Labels != nil {
			label = d.Labels[i]
		}
		qid := int64(-1)
		if qids != nil {
			qid = qids[i]
		}
		cols, vals := d.Row(i)
		if err := lw.WriteRow(cols, vals, label, qid); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// groupQids expands group sizes into every row's 1-based qid; nil groups
// give nil.
func groupQids(groups []int, rows int) ([]int64, error) {
	if groups == nil {
		return nil, nil
	}
	total := 0
	for gi, g := range groups {
		if g <= 0 {
			return nil, fmt.Errorf("dataset: group %d has non-positive size %d", gi, g)
		}
		total += g
	}
	if total != rows {
		return nil, fmt.Errorf("dataset: groups cover %d rows, dataset has %d", total, rows)
	}
	qids := make([]int64, 0, rows)
	for gi, g := range groups {
		for ; g > 0; g-- {
			qids = append(qids, int64(gi+1))
		}
	}
	return qids, nil
}

// LibSVMWriter emits LibSVM rows one at a time, so generators can write
// datasets far larger than memory. Flush must be called before the
// underlying writer is closed.
type LibSVMWriter struct {
	bw *bufio.Writer
}

// NewLibSVMWriter wraps w in a buffered row writer.
func NewLibSVMWriter(w io.Writer) *LibSVMWriter {
	return &LibSVMWriter{bw: bufio.NewWriter(w)}
}

// WriteRow appends one row; indices are 0-based and sorted, written
// 1-based as the format requires. A qid >= 0 is written as the row's
// qid:N token; -1 writes none.
func (w *LibSVMWriter) WriteRow(indices []int32, values []float64, label float64, qid int64) error {
	if _, err := fmt.Fprintf(w.bw, "%g", label); err != nil {
		return err
	}
	if qid >= 0 {
		if _, err := fmt.Fprintf(w.bw, " qid:%d", qid); err != nil {
			return err
		}
	}
	for k, j := range indices {
		if _, err := fmt.Fprintf(w.bw, " %d:%g", j+1, values[k]); err != nil {
			return err
		}
	}
	return w.bw.WriteByte('\n')
}

// Flush drains the buffer to the underlying writer.
func (w *LibSVMWriter) Flush() error { return w.bw.Flush() }

// LoadLibSVMFile reads a LibSVM file from disk (see ReadLibSVM).
func LoadLibSVMFile(path string, cols int) (*Dataset, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadLibSVM(f, cols)
}

// SaveLibSVMFile writes a LibSVM file to disk (see WriteLibSVM).
func SaveLibSVMFile(path string, d *Dataset, groups []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteLibSVM(f, d, groups); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
