package fault

import (
	"fmt"
	"os"

	"taskpoint/internal/sim"
	"taskpoint/internal/store"
	"taskpoint/internal/sweep"
)

// faultyStore wraps a disk store with the injector's store-seam faults:
// operation errors, added latency, partial (torn) reads, and genuinely
// torn writes, produced by truncating the just-written entry mid-payload
// exactly as a crash between write and sync would. A torn entry is real
// corruption: the disk store's verified read quarantines it and reports
// a miss, which is the recovery path under test.
type faultyStore struct {
	disk *store.DiskStore
	inj  *Injector
}

// WrapDisk applies the injector's store faults to a disk store,
// including torn writes against its on-disk entries. A nil or
// store-quiet injector returns d unchanged.
func WrapDisk(d *store.DiskStore, inj *Injector) store.Store {
	if !inj.StoreFaultsEnabled() {
		return d
	}
	return &faultyStore{disk: d, inj: inj}
}

func (s *faultyStore) Baseline(addr string) (*sim.Result, error) {
	if err := s.inj.StoreOp("baseline.load"); err != nil {
		return nil, err
	}
	res, err := s.disk.Baseline(addr)
	if err == nil {
		if perr := s.inj.PartialRead("baseline.load"); perr != nil {
			return nil, perr
		}
	}
	return res, err
}

func (s *faultyStore) PutBaseline(addr string, res *sim.Result) error {
	if err := s.inj.StoreOp("baseline.put"); err != nil {
		return err
	}
	if err := s.disk.PutBaseline(addr, res); err != nil {
		return err
	}
	s.maybeTear(addr)
	return nil
}

func (s *faultyStore) Report(addr string) (*sweep.Record, error) {
	if err := s.inj.StoreOp("report.load"); err != nil {
		return nil, err
	}
	rec, err := s.disk.Report(addr)
	if err == nil {
		if perr := s.inj.PartialRead("report.load"); perr != nil {
			return nil, perr
		}
	}
	return rec, err
}

func (s *faultyStore) PutReport(addr string, rec *sweep.Record) error {
	if err := s.inj.StoreOp("report.put"); err != nil {
		return err
	}
	if err := s.disk.PutReport(addr, rec); err != nil {
		return err
	}
	s.maybeTear(addr)
	return nil
}

// maybeTear truncates the entry at addr mid-payload when the torn-write
// fault fires. The entry stays present but unverifiable, so the next
// read quarantines it — corruption costs a recomputation, never a wrong
// result, and the chaos harness asserts exactly that.
func (s *faultyStore) maybeTear(addr string) {
	if !s.inj.TornWrite() {
		return
	}
	path, err := s.disk.EntryPath(addr)
	if err != nil {
		return
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() < 2 {
		return
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		fmt.Fprintf(os.Stderr, "fault: tearing %s: %v\n", path, err)
	}
}
