package main

import (
	"sync"

	"repro/internal/sweep"
)

// timedStore wraps the DirStore a user passes as a sweep or serve Store,
// timing each call. It forwards Quarantined so the serve layer's
// corruption guard behaves exactly as over a bare DirStore.
type timedStore struct {
	inner  *sweep.DirStore
	tr     *tracer
	worker string

	mu  sync.Mutex
	lat map[string][]float64 // per call kind, ms
	ids []int                // span ids, linked to parents after the run
}

func newTimedStore(inner *sweep.DirStore, tr *tracer, worker string) *timedStore {
	return &timedStore{inner: inner, tr: tr, worker: worker, lat: map[string][]float64{}}
}

func (s *timedStore) time(kind, key string, call func() error) error {
	start := now()
	err := call()
	ms := msSince(start)
	s.mu.Lock()
	s.lat[kind] = append(s.lat[kind], ms)
	s.mu.Unlock()
	if s.tr != nil {
		id := s.tr.add(span{Name: "store." + kind, Layer: "store", Worker: s.worker, Key: key,
			Start: s.tr.ms(start), End: s.tr.ms(start) + ms})
		s.mu.Lock()
		s.ids = append(s.ids, id)
		s.mu.Unlock()
	}
	return err
}

// medianMS returns the median latency of one call kind, 0 if never called.
func (s *timedStore) medianMS(kind string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.lat[kind])
}

func (s *timedStore) Get(key string) (res *sweep.Result, ok bool, err error) {
	err = s.time("get", key, func() (e error) { res, ok, e = s.inner.Get(key); return })
	return
}

func (s *timedStore) Put(res *sweep.Result) error {
	return s.time("put", res.Key, func() error { return s.inner.Put(res) })
}

func (s *timedStore) GetRaw(key string) (data []byte, ok bool, err error) {
	err = s.time("getraw", key, func() (e error) { data, ok, e = s.inner.GetRaw(key); return })
	return
}

func (s *timedStore) PutRaw(key string, payload []byte) error {
	return s.time("putraw", key, func() error { return s.inner.PutRaw(key, payload) })
}

func (s *timedStore) JournalKeys() (map[string]bool, error) {
	return s.inner.JournalKeys()
}

func (s *timedStore) AppendJournal(line sweep.JournalLine) error {
	return s.time("journal", line.Key, func() error { return s.inner.AppendJournal(line) })
}

func (s *timedStore) Quarantined() int { return s.inner.Quarantined() }

var (
	_ sweep.Store    = (*timedStore)(nil)
	_ sweep.RawStore = (*timedStore)(nil)
)
