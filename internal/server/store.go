package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store persists one JSON file per job under a directory. Writes are
// atomic (temp file + rename), so a crash mid-write leaves the previous
// checkpoint intact; floats survive the JSON round trip exactly
// (encoding/json emits the shortest representation that parses back to
// the same float64), which is what makes checkpoint resume
// bit-identical.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) an on-disk job store.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(id string) string {
	return filepath.Join(s.dir, "job-"+id+".json")
}

// Save writes the record atomically.
func (s *Store) Save(rec jobRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: store: marshal %s: %w", rec.ID, err)
	}
	tmp, err := os.CreateTemp(s.dir, "job-*.tmp")
	if err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		//errdrop-ok (best-effort temp cleanup; the write error is what matters)
		os.Remove(tmp.Name())
		return fmt.Errorf("server: store: write %s: %w", rec.ID, errFirst(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.path(rec.ID)); err != nil {
		//errdrop-ok (best-effort temp cleanup; the rename error is what matters)
		os.Remove(tmp.Name())
		return fmt.Errorf("server: store: %w", err)
	}
	return nil
}

// Load reads every job record, sorted by submission time then ID so
// restart recovery re-queues jobs in their original order. Unreadable
// files and records without an ID are skipped (reported in errs)
// rather than failing the whole recovery. A record whose checkpoint
// fails validation is loaded as failed, with the reason as its error
// and the checkpoint dropped, so its client still learns what
// happened.
func (s *Store) Load() (recs []jobRecord, errs []error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, []error{fmt.Errorf("server: store: %w", err)}
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			errs = append(errs, fmt.Errorf("server: store: %s: %w", name, err))
			continue
		}
		if rec.ID == "" {
			errs = append(errs, fmt.Errorf("server: store: %s: invalid record", name))
			continue
		}
		if rec.Checkpoint != nil {
			if err := rec.Checkpoint.Validate(); err != nil {
				errs = append(errs, fmt.Errorf("server: store: %s: job marked failed: %w", name, err))
				rec.State = StateFailed
				rec.Error = "invalid checkpoint: " + err.Error()
				rec.Checkpoint = nil
			}
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].SubmittedAt.Equal(recs[j].SubmittedAt) {
			return recs[i].SubmittedAt.Before(recs[j].SubmittedAt)
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, errs
}

func errFirst(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
