package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/colstore"
)

// oracleFixture trains a small model and returns it with its parts and
// one batch of fresh tables.
func oracleFixture(t *testing.T) (*unidetect.Model, parts, batch) {
	t.Helper()
	m, err := unidetect.Train(context.Background(), unidetect.SyntheticCorpus(unidetect.WebProfile, 200, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := loadParts(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return m, p, newWebStream(9).nextBatch(batchTables)
}

// corruptions are the wrong outputs every check must reject: a dropped
// finding, a changed score, a changed row, and no findings at all (the
// shape of a truncated detection that looks like a clean table).
func corruptions(fs []unidetect.Finding) map[string][]unidetect.Finding {
	clone := func() []unidetect.Finding {
		out := make([]unidetect.Finding, len(fs))
		for i, f := range fs {
			f.Rows = append([]int(nil), f.Rows...)
			out[i] = f
		}
		return out
	}
	score, row := clone(), clone()
	score[0].Score = math.Nextafter(score[0].Score, 1)
	row[0].Rows[0]++
	return map[string][]unidetect.Finding{
		"dropped finding": clone()[1:],
		"changed score":   score,
		"changed row":     row,
		"no findings":     nil,
	}
}

func TestAuditOracleRejectsCorruptOutput(t *testing.T) {
	m, p, bt := oracleFixture(t)
	ctx := context.Background()
	got := m.DetectAll(ctx, bt.Tables)
	want := p.predictor(0, true).DetectAll(ctx, bt.Tables)
	if len(got) < 2 {
		t.Fatalf("only %d findings; the check has no power", len(got))
	}
	if err := checkAudit(got, want); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	for name, bad := range corruptions(got) {
		if checkAudit(bad, want) == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestServeOracleRejectsCorruptReply(t *testing.T) {
	m, _, bt := oracleFixture(t)
	ctx := context.Background()
	checked := 0
	for _, tb := range bt.Tables {
		fs := m.Detect(ctx, tb)
		if len(fs) < 2 {
			continue
		}
		want := detectBody(tb.Name, fs)
		if err := checkServe(want, want); err != nil {
			t.Fatalf("correct reply rejected: %v", err)
		}
		for name, bad := range corruptions(fs) {
			if checkServe(detectBody(tb.Name, bad), want) == nil {
				t.Errorf("%s: %s accepted", tb.Name, name)
			}
		}
		if checkServe([]byte(fmt.Sprintf("{\"table\":%q,\"findings\":[]}\n", tb.Name)), want) == nil {
			t.Errorf("%s: 200 {\"findings\":[]} accepted", tb.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no table with two findings; the check has no power")
	}
}

func TestJobOracleRejectsCorruptStream(t *testing.T) {
	m, _, _ := oracleFixture(t)
	var u jobUpload
	var fs []unidetect.Finding
	for _, u = range jobUploads(4, 4) {
		src, err := colstore.NewCSVSource(u.Name, bytes.NewReader(u.Body), colstore.Options{ChunkRows: jobChunkRows})
		if err != nil {
			t.Fatal(err)
		}
		if fs, err = m.DetectSource(context.Background(), src); err != nil {
			t.Fatal(err)
		}
		if len(fs) >= 2 {
			break
		}
	}
	if len(fs) < 2 {
		t.Fatalf("only %d findings; the check has no power", len(fs))
	}
	status := func(state string) []byte {
		return []byte(fmt.Sprintf("{\"id\":\"j1\",\"state\":%q,\"rows\":%d,\"findings\":%d}\n", state, u.Rows, len(fs)))
	}
	want := jobBody(fs)
	if err := checkJob(append(append([]byte(nil), want...), status("done")...), want); err != nil {
		t.Fatalf("correct job reply rejected: %v", err)
	}
	for name, bad := range corruptions(fs) {
		if checkJob(append(jobBody(bad), status("done")...), want) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if checkJob(append(append([]byte(nil), want...), status("degraded")...), want) == nil {
		t.Error("degraded job accepted")
	}
	if checkJob(want, want) == nil {
		t.Error("reply without a status line accepted")
	}
}
