package main

// oracle.go holds the output checks. Every output a workload receives is
// compared with an independent computation of what it must be, outside
// the timed window; any difference fails the operation.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/core"
)

// canonical renders one finding with every field, the score as its
// exact bits, so equal lines mean byte-identical findings.
func canonical(class, tbl, column string, rows []int, values []string, score float64, detail string) string {
	return fmt.Sprintf("%s|%q|%q|%v|%q|%016x|%q", class, tbl, column, rows, values, math.Float64bits(score), detail)
}

// checkAudit compares DetectAll's findings with the reference
// predictor's on the same tables.
func checkAudit(got []unidetect.Finding, want []core.Finding) error {
	g := make([]string, len(got))
	for i, f := range got {
		g[i] = canonical(f.Class.String(), f.Table, f.Column, f.Rows, f.Values, f.Score, f.Detail)
	}
	w := make([]string, len(want))
	for i, f := range want {
		w[i] = canonical(f.Class.String(), f.Table, f.Column, f.Rows, f.Values, f.LR, f.Detail)
	}
	return diffLines("findings", g, w)
}

// diffLines reports the first difference between two line lists.
func diffLines(what string, got, want []string) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("%s differ at %d:\n  got  %s\n  want %s", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: got %d, want %d", what, len(got), len(want))
	}
	return nil
}

// detectReply is the /v1/detect reply shape.
type detectReply struct {
	Table    string        `json:"table"`
	Findings []findingJSON `json:"findings"`
}

type findingJSON struct {
	Class  string   `json:"class"`
	Column string   `json:"column"`
	Rows   []int    `json:"rows"`
	Values []string `json:"values,omitempty"`
	Score  float64  `json:"score"`
	Detail string   `json:"detail,omitempty"`
}

// detectBody is the exact reply the daemon must send for table name.
func detectBody(name string, fs []unidetect.Finding) []byte {
	r := detectReply{Table: name, Findings: []findingJSON{}}
	for _, f := range fs {
		r.Findings = append(r.Findings, findingJSON{Class: f.Class.String(), Column: f.Column,
			Rows: f.Rows, Values: f.Values, Score: f.Score, Detail: f.Detail})
	}
	return encodeJSONLine(r)
}

// checkServe compares a /v1/detect reply with the expected body.
func checkServe(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	return diffLines("reply", splitJSONFindings(got), splitJSONFindings(want))
}

// splitJSONFindings breaks a reply into one line per finding, for a
// readable first difference.
func splitJSONFindings(body []byte) []string {
	return strings.Split(strings.TrimSpace(string(body)), "},{")
}

// jobWire is one line of a finished job's findings stream.
type jobWire struct {
	Class  string   `json:"class"`
	Table  string   `json:"table"`
	Column string   `json:"column"`
	Rows   []int    `json:"rows"`
	Values []string `json:"values,omitempty"`
	Score  float64  `json:"score"`
	Detail string   `json:"detail,omitempty"`
}

// jobStatus is a job's status line, the last line of a terminal reply.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Chunks   int    `json:"chunks"`
	Degraded int    `json:"degraded"`
	Rows     int    `json:"rows"`
	Findings int    `json:"findings"`
}

// jobBody is the exact findings stream a finished job must return
// before its status line.
func jobBody(fs []unidetect.Finding) []byte {
	var buf bytes.Buffer
	for _, f := range fs {
		buf.Write(encodeJSONLine(jobWire{Class: f.Class.String(), Table: f.Table, Column: f.Column,
			Rows: f.Rows, Values: f.Values, Score: f.Score, Detail: f.Detail}))
	}
	return buf.Bytes()
}

// splitJobReply separates a job reply into its findings stream and its
// final status line.
func splitJobReply(reply []byte) (findings []byte, st jobStatus, err error) {
	body := bytes.TrimSuffix(reply, []byte("\n"))
	i := bytes.LastIndexByte(body, '\n')
	if err := json.Unmarshal(body[i+1:], &st); err != nil || st.State == "" {
		return nil, st, fmt.Errorf("job reply has no status line: %q", body[i+1:])
	}
	return reply[:i+1], st, nil
}

// checkJob compares a job reply with the expected findings stream; the
// job must also have ended done, never degraded or failed.
func checkJob(reply, want []byte) error {
	got, st, err := splitJobReply(reply)
	if err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("job %s ended %s (%s), want done", st.ID, st.State, st.Error)
	}
	if bytes.Equal(got, want) {
		return nil
	}
	return diffLines("job findings", strings.Split(string(got), "\n"), strings.Split(string(want), "\n"))
}

func encodeJSONLine(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("perfbench: encode %T: %v", v, err)) // plain structs of strings and numbers
	}
	return buf.Bytes()
}
