package fuzz

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"taskpoint/internal/obs"
)

// LoadCorpus reads a reproducer corpus: JSONL, one Finding per line. Every
// line must parse — writers guarantee complete lines by truncating a
// partial tail (obs.DropPartialTail) before appending, so a malformed
// line is corruption, not an interrupted campaign.
func LoadCorpus(r io.Reader) ([]Finding, error) {
	var out []Finding
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var f Finding
		if err := json.Unmarshal([]byte(text), &f); err != nil {
			return nil, fmt.Errorf("fuzz: corpus line %d: %w", line, err)
		}
		if f.Spec == "" || f.Policy == "" || len(f.Classes) == 0 {
			return nil, fmt.Errorf("fuzz: corpus line %d: finding without spec, policy or classes", line)
		}
		out = append(out, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadCorpusFile loads the corpus at path; a missing file is an empty
// corpus, not an error.
func ReadCorpusFile(path string) ([]Finding, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCorpus(f)
}

// AppendCorpus appends findings to the corpus at path, creating it if
// absent. Before appending it truncates a partial trailing line (an
// interrupted fuzz run killed mid-write) with obs.DropPartialTail, so
// new records never glue onto a torn one, and it dedupes against the
// entries already present by cell key — re-discovering a committed
// reproducer does not duplicate it. Returns how many findings were
// actually appended.
func AppendCorpus(path string, fs []Finding) (added int, err error) {
	if err := obs.DropPartialTail(path); err != nil {
		return 0, err
	}
	existing, err := ReadCorpusFile(path)
	if err != nil {
		return 0, err
	}
	seen := make(map[string]bool, len(existing))
	for _, f := range existing {
		seen[f.Key()] = true
	}
	out, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(out)
	for _, f := range fs {
		if seen[f.Key()] {
			continue
		}
		seen[f.Key()] = true
		if err := enc.Encode(f); err != nil {
			out.Close()
			return added, err
		}
		added++
	}
	return added, out.Close()
}
