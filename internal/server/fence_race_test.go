package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFenceRacesRegistration registers datasets from several goroutines
// while the node is fenced. No registration that starts after the fence
// returned may succeed, and every dataset the node holds afterwards, also
// one registered while the fence ran, must have a fenced store: a dataset
// with an unfenced store would make the node a second live budget-writer.
// Run it with -race -count=50.
func TestFenceRacesRegistration(t *testing.T) {
	srv := mustNew(t, Options{DataDir: t.TempDir(), Workers: 1})
	register := func(name string) int {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets",
			strings.NewReader(`{"name":"`+name+`","epsilon":1,"points":[[0.5,0.5]]}`)))
		return rec.Code
	}
	if code := register("first"); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	var fenced atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				after := fenced.Load()
				switch code := register(fmt.Sprintf("g%d-%d", g, i)); {
				case after && code == http.StatusCreated:
					errs <- fmt.Sprintf("g%d-%d: registered after the fence returned", g, i)
				case code != http.StatusCreated && code != http.StatusForbidden:
					errs <- fmt.Sprintf("g%d-%d: register = %d, want 201 or 403", g, i, code)
				}
			}
		}()
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/fence", strings.NewReader(`{"epoch":5}`)))
	fenced.Store(true)
	if rec.Code != http.StatusOK {
		t.Fatalf("fence = %d %s", rec.Code, rec.Body)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, d := range srv.Registry().List() {
		if _, ok := d.store.FencedEpoch(); !ok {
			t.Errorf("dataset %q holds an unfenced store after the fence", d.Name)
		}
	}
}
