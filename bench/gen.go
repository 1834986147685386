package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"logr"
)

// Seeded input generators. Everything a workload feeds the program under
// test comes from here and depends only on the seed: the same seed gives
// byte-identical statements, probes and schedules, another seed gives
// others. The two statement families follow the paper's two logs — a bank
// log of human-written statements carrying literal constants, and a
// phone-app log of a few hundred machine-generated statements whose
// constants are already JDBC parameters.
//
// The statement shapes of both logs are constants of the benchmark, like
// its sizes: they are the application — its schema and the statements its
// code issues. A run's seed draws the log that application writes: the
// literal constants, the order of statements, the novel stream, the probe
// set and the schedule. Runs with different seeds are then samples of one
// workload, and a metric's run-to-run spread is that of the system, not of
// eight different applications.

const (
	// bankShapes is the number of distinct statements the bank log has
	// once constants are scrubbed (paper Table 1: 1,712).
	bankShapes = 1712
	// appStatements is the number of distinct statements of the app log
	// (paper Table 1, PocketData: 605).
	appStatements = 605
	// bankFamilies and appFamilies are how many task families the shapes
	// of each log come from. Both exceed the clusters a summary gets: with
	// exactly as many families as clusters, k-means either finds them all
	// or does not, and the Reproduction Error of one log jumps by a third
	// between seeds.
	bankFamilies, appFamilies = 48, 16
	// familyCols and familyPreds size the pools a family's statements
	// choose their columns and predicates from.
	familyCols, familyPreds = 5, 4
	// batchEntries is the size of every ingest batch a client ships.
	batchEntries = 512
	// zipfS and zipfShift shape the multiplicities of the bank shapes:
	// rank i occurs in proportion to 1/(i+zipfShift)^zipfS.
	zipfS, zipfShift = 1.25, 1.5
	// shapeSeed fixes the statement shapes of both logs.
	shapeSeed = 2018
	// novelSerial0 is where the novel stream's serial numbers start, past
	// every serial a bank log spells into its own constants.
	novelSerial0 = 1 << 32
)

type table struct {
	name string
	cols []string
}

var bankTables = []table{
	{"core.account", []string{"account_no", "holder_id", "branch_code", "ledger_balance", "ccy", "state", "opened_on", "product_code", "overdraft_cap"}},
	{"core.holder", []string{"holder_id", "tax_ref", "legal_name", "tier", "risk_band", "contact_email", "contact_phone", "postal_id", "kyc_state"}},
	{"core.posting", []string{"posting_id", "account_no", "amount", "ccy", "kind", "booked_at", "merchant_ref", "channel", "state", "batch_no"}},
	{"core.card", []string{"card_no", "account_no", "scheme", "expires_on", "state", "credit_cap", "last_seen_at"}},
	{"core.branch", []string{"branch_code", "region", "province", "manager_ref", "opened_on"}},
	{"credit.loan", []string{"loan_no", "holder_id", "principal", "apr", "term_months", "state", "booked_on", "officer_ref"}},
	{"credit.instalment", []string{"instalment_id", "loan_no", "amount", "due_on", "paid_on", "state"}},
	{"credit.pledge", []string{"pledge_id", "loan_no", "asset_kind", "appraised_at", "appraised_value"}},
	{"credit.request", []string{"request_id", "holder_id", "product_code", "state", "filed_at", "decided_at", "score"}},
	{"watch.alert", []string{"alert_id", "account_no", "rule_no", "severity", "raised_at", "closed_at", "analyst_ref", "outcome"}},
	{"watch.rule", []string{"rule_no", "title", "family", "threshold", "enabled"}},
	{"watch.listing", []string{"listing_id", "holder_id", "list_code", "added_at", "origin"}},
	{"watch.case_step", []string{"step_id", "case_no", "step_kind", "step_at", "actor"}},
	{"ops.audit", []string{"audit_id", "actor", "verb", "object_ref", "at", "session_ref", "peer_ip"}},
	{"ops.job", []string{"job_id", "job_name", "state", "started_at", "ended_at", "rows_done"}},
	{"ops.login", []string{"session_ref", "user_name", "app_name", "login_at", "logout_at", "terminal"}},
	{"desk.position", []string{"position_id", "desk", "instrument_id", "quantity", "marked_at", "pnl"}},
	{"desk.instrument", []string{"instrument_id", "ticker", "asset_class", "issuer", "matures_on"}},
	{"desk.fx", []string{"fx_id", "base_ccy", "quote_ccy", "rate", "as_of"}},
	{"gl.entry", []string{"entry_id", "account_code", "debit", "credit", "booked_at", "source_system"}},
	{"gl.recon", []string{"recon_id", "batch_no", "state", "diff_amount", "run_at"}},
	{"ops.schedule", []string{"schedule_id", "job_name", "cron", "enabled", "owner"}},
	{"ops.dq_check", []string{"check_id", "table_name", "rule", "failed_rows", "run_at"}},
	{"core.mandate", []string{"mandate_id", "account_no", "creditor_ref", "state", "signed_on", "cap_amount"}},
}

var appTables = []table{
	{"threads", []string{"thread_id", "last_message_at", "unread", "muted", "title", "snippet", "inviter_id", "state"}},
	{"thread_members", []string{"thread_id", "member_kind", "given_name", "peer_id", "blocked", "active", "avatar_url", "account_id"}},
	{"messages", []string{"_id", "thread_id", "kind", "sent_at", "state", "transport", "delivery_state", "sender_id", "body"}},
	{"message_alerts", []string{"message_id", "thread_id", "sent_at", "watermark", "kind", "alert_level", "snippet", "state"}},
	{"people", []string{"person_id", "peer_id", "display_name", "given_name", "last_seen_at", "presence", "circle_id"}},
	{"suggestions", []string{"suggestion_kind", "display_name", "peer_id", "circle_ids", "avatar_url", "account_id", "affinity"}},
	{"attachments", []string{"_id", "thread_id", "sent_at", "expires_at", "local_uri", "remote_uri", "bytes"}},
	{"sync_state", []string{"account_id", "cursor", "synced_at", "pending", "generation"}},
}

var compareOps = []string{"=", "!=", ">", "<", ">=", "<="}

// pick returns k distinct elements of src in source order.
func pick(rng *rand.Rand, src []string, k int) []string {
	if k >= len(src) {
		return append([]string(nil), src...)
	}
	idx := rng.Perm(len(src))[:k]
	sort.Ints(idx)
	out := make([]string, k)
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// template is one statement shape: SQL whose constants are '?'
// placeholders, plus the pieces a probe pattern is cut from.
type template struct {
	sql   string
	table string
	cols  []string
	preds []string
	// human marks a statement an analyst typed: its occurrences carry
	// literal constants, so one shape is many distinct raw strings.
	human bool
}

// family is one task a log's statements serve — the paper's Figure 10
// finds a phone app's log to be eight of them: a table, sometimes a join,
// and the pools of columns and predicates its statements choose from.
type family struct {
	from  string
	table string
	cols  []string
	preds []string
}

func genFamilies(rng *rand.Rand, tables []table, n int) []family {
	out := make([]family, n)
	for i := range out {
		t := tables[i%len(tables)]
		f := family{from: t.name, table: t.name, cols: pick(rng, t.cols, familyCols)}
		if i%4 == 3 {
			o := tables[rng.Intn(len(tables))]
			if key := sharedColumn(t, o); key != "" && o.name != t.name {
				// the parser takes table.column, not schema.table.column
				f.from += " JOIN " + o.name + " ON " + bare(t.name) + "." + key + " = " + bare(o.name) + "." + key
			}
		}
		for len(f.preds) < familyPreds {
			p := t.cols[rng.Intn(len(t.cols))] + " " + compareOps[rng.Intn(len(compareOps))] + " ?"
			f.preds = appendNew(f.preds, p)
		}
		out[i] = f
	}
	return out
}

func appendNew(xs []string, x string) []string {
	for _, y := range xs {
		if x == y {
			return xs
		}
	}
	return append(xs, x)
}

// some keeps each element of src with probability one half, and at least
// one.
func some(rng *rand.Rand, src []string) []string {
	var out []string
	for _, x := range src {
		if rng.Intn(2) == 0 {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		out = append(out, src[rng.Intn(len(src))])
	}
	return out
}

// genTemplates draws n distinct statement shapes from `families` task
// families over tables. humanFrac is the share whose constants are
// literals (0 for the app log).
func genTemplates(rng *rand.Rand, tables []table, families, n int, humanFrac float64) []template {
	fams := genFamilies(rng, tables, families)
	seen := make(map[string]bool, n)
	out := make([]template, 0, n)
	for tries := 0; len(out) < n && tries < 50*n; tries++ {
		// families take turns, so that the heavy head of the Zipf ranking
		// (rank = order of generation) is spread over all of them
		f := fams[len(out)%len(fams)]
		cols, preds := some(rng, f.cols), some(rng, f.preds)
		var sb strings.Builder
		sb.WriteString("SELECT ")
		if rng.Intn(12) == 0 {
			sb.WriteString("COUNT(*)")
		} else {
			sb.WriteString(strings.Join(cols, ", "))
		}
		sb.WriteString(" FROM " + f.from + " WHERE " + strings.Join(preds, " AND "))
		if rng.Intn(8) == 0 {
			a, b := f.cols[rng.Intn(len(f.cols))], f.cols[rng.Intn(len(f.cols))]
			sb.WriteString(" AND (" + a + " = ? OR " + b + " = ?)")
		}
		if rng.Intn(5) == 0 {
			sb.WriteString(" ORDER BY " + cols[0] + " DESC")
		}
		if rng.Intn(6) == 0 {
			sb.WriteString(" LIMIT 100")
		}
		sql := sb.String()
		if seen[sql] {
			continue
		}
		seen[sql] = true
		out = append(out, template{
			sql: sql, table: f.table, cols: cols, preds: preds,
			human: rng.Float64() < humanFrac,
		})
	}
	return out
}

// bare strips the schema from a qualified table name.
func bare(name string) string { return name[strings.IndexByte(name, '.')+1:] }

func sharedColumn(a, b table) string {
	for _, c := range a.cols {
		for _, d := range b.cols {
			if c == d {
				return c
			}
		}
	}
	return ""
}

// zipfCounts splits total over n ranks by a shifted Zipf law, every rank
// getting at least one: query logs are heavy-tailed (the paper's bank log
// repeats one statement 208,742 times in 1.24 M).
func zipfCounts(n, total int, s, shift float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1)+shift, s)
		sum += w[i]
	}
	out := make([]int, n)
	used := 0
	for i := range w {
		out[i] = 1 + int(w[i]/sum*float64(total-n))
		used += out[i]
	}
	out[0] += total - used
	return out
}

// bind fills the placeholders of sql with literal constants. serial makes
// the result unique: it is spelled into the first placeholder, so two calls
// with different serials never return the same string.
func bind(sb *strings.Builder, sql string, rng *rand.Rand, serial int64) string {
	sb.Reset()
	first := true
	for i := 0; i < len(sql); i++ {
		if sql[i] != '?' {
			sb.WriteByte(sql[i])
			continue
		}
		switch {
		case first:
			sb.WriteString(strconv.FormatInt(serial, 10))
			first = false
		case rng.Intn(2) == 0:
			sb.WriteString(strconv.Itoa(rng.Intn(1000000)))
		default:
			sb.WriteString("'K")
			sb.WriteString(strconv.Itoa(rng.Intn(1000000)))
			sb.WriteByte('\'')
		}
	}
	return sb.String()
}

// bankTemplates returns the first n of the bank log's statement shapes,
// most frequent first.
func bankTemplates(n int) []template {
	return genTemplates(rand.New(rand.NewSource(shapeSeed)), bankTables, bankFamilies, n, 0.55)
}

// bankLog is the batch-compression input: queries statements over the
// bank shapes, of which exactly distinct are distinct raw strings — the
// human-written shapes are split over constant bindings in proportion to
// how often they occur, as in the paper's bank log (188,184 distinct with
// constants, 1,712 without). Entries are deduplicated (Count carries
// multiplicity) and shuffled. Which shape stands where is the same for
// every seed, so the clustering problem is too; the seed writes the
// constants.
func bankLog(seed int64, tpls []template, queries, distinct int) []logr.Entry {
	rng := rand.New(rand.NewSource(seed ^ 0x62616e6b))
	counts := zipfCounts(len(tpls), queries, zipfS, zipfShift)
	variants := splitVariants(tpls, counts, distinct)
	entries := make([]logr.Entry, 0, distinct)
	var sb strings.Builder
	serial := int64(0)
	for i, t := range tpls {
		if !t.human {
			entries = append(entries, logr.Entry{SQL: t.sql, Count: counts[i]})
			continue
		}
		per, rem := counts[i]/variants[i], counts[i]%variants[i]
		for v := 0; v < variants[i]; v++ {
			c := per
			if v < rem {
				c++
			}
			serial++
			entries = append(entries, logr.Entry{SQL: bind(&sb, t.sql, rng, serial), Count: c})
		}
	}
	rand.New(rand.NewSource(shapeSeed)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries
}

// splitVariants decides into how many constant bindings each human-written
// shape splits so that the log has exactly distinct raw strings: a share
// of the shape's occurrences, the same share for all, found by bisection,
// with the remainder handed to the most frequent shapes.
func splitVariants(tpls []template, counts []int, distinct int) []int {
	alloc := func(share float64) ([]int, int) {
		v, total := make([]int, len(tpls)), 0
		for i, t := range tpls {
			v[i] = 1
			if t.human {
				v[i] = max(1, min(counts[i], int(share*float64(counts[i]))))
			}
			total += v[i]
		}
		return v, total
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 50; i++ {
		if _, total := alloc((lo + hi) / 2); total > distinct {
			hi = (lo + hi) / 2
		} else {
			lo = (lo + hi) / 2
		}
	}
	v, total := alloc(lo)
	for i := 0; total < distinct && i < len(tpls); i++ {
		if tpls[i].human && v[i] < counts[i] {
			v[i]++
			total++
		}
	}
	return v
}

// appLog returns the app log's distinct statements in the order the app
// issues them. The app's loop is machine-generated and the same on every
// run: no seed enters it.
func appLog() []template {
	return genTemplates(rand.New(rand.NewSource(shapeSeed)), appTables, appFamilies, appStatements, 0)
}

// repeatBatch is batch number n of the repeating stream: batchEntries
// Count=1 entries cycling the app statements in order.
func repeatBatch(stmts []template, n int64, buf []logr.Entry) []logr.Entry {
	buf = buf[:0]
	at := int(n * batchEntries % int64(len(stmts)))
	for i := 0; i < batchEntries; i++ {
		buf = append(buf, logr.Entry{SQL: stmts[at].sql, Count: 1})
		if at++; at == len(stmts) {
			at = 0
		}
	}
	return buf
}

// novelStream produces batches in which every raw statement is unique —
// fresh literal constants, written by the seed — while the shapes stay the
// bank log's, drawn by the same Zipf law in a sequence that is the same for
// every seed. Stream number lane keeps the serials of concurrent clients
// apart.
type novelStream struct {
	tpls   []template
	cum    []float64
	shapes *rand.Rand // which shape comes next
	consts *rand.Rand // the constants it carries
	sb     strings.Builder
	serial int64
	step   int64
}

func newNovelStream(seed int64, tpls []template, lane, lanes int) *novelStream {
	cum := make([]float64, len(tpls))
	sum := 0.0
	for i := range cum {
		sum += 1 / math.Pow(float64(i+1)+zipfShift, zipfS)
		cum[i] = sum
	}
	return &novelStream{
		tpls: tpls, cum: cum,
		shapes: rand.New(rand.NewSource(shapeSeed + int64(lane))),
		consts: rand.New(rand.NewSource(seed*1000003 + int64(lane))),
		serial: novelSerial0 + int64(lane), step: int64(lanes),
	}
}

func (s *novelStream) batch(buf []logr.Entry) []logr.Entry {
	buf = buf[:0]
	top := s.cum[len(s.cum)-1]
	for i := 0; i < batchEntries; i++ {
		t := s.tpls[sort.SearchFloat64s(s.cum, s.shapes.Float64()*top)]
		s.serial += s.step
		buf = append(buf, logr.Entry{SQL: bind(&s.sb, t.sql, s.consts, s.serial), Count: 1})
	}
	return buf
}

// probeSet cuts up to n conjunctive probe patterns out of the statement
// shapes (the app log's few hundred statements yield fewer than 2,000):
// a table, one projected column and one or two of the shape's predicates —
// "how often is this column read under this condition" — so a probe's
// features are ones the log has seen and its estimate depends on how well
// the summary keeps their correlation.
func probeSet(seed int64, tpls []template, n int) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		// the head of the Zipf ranking is where the log's mass is
		t := tpls[rng.Intn(1+rng.Intn(len(tpls)))]
		q := "SELECT " + t.cols[rng.Intn(len(t.cols))] + " FROM " + t.table + " WHERE " + strings.Join(pick(rng, t.preds, 1+rng.Intn(2)), " AND ")
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

type opKind uint8

const (
	opIngest opKind = iota
	opEstimate
	opCount
	numOpKinds
)

func (k opKind) String() string { return [...]string{"ingest", "estimate", "count"}[k] }

// event is one request of an open-loop schedule: when it is due, counted
// from the start of the window, and which probe it carries.
type event struct {
	due   time.Duration
	kind  opKind
	probe int
}

// schedule lays out an open-loop window: each kind at its fixed rate,
// evenly spaced, the kinds' phases spread evenly over the shortest period
// so that no two events fall closer than a third of it, well outside the
// generator's own timing error. The seed draws the probe each event
// carries. Every period must be a multiple of the shortest.
func schedule(seed int64, window time.Duration, perSecond [numOpKinds]int, probes int) []event {
	rng := rand.New(rand.NewSource(seed ^ 0x7363686564))
	shortest := time.Duration(math.MaxInt64)
	for _, rate := range perSecond {
		if rate > 0 {
			shortest = min(shortest, time.Second/time.Duration(rate))
		}
	}
	var out []event
	for k := opKind(0); k < numOpKinds; k++ {
		if perSecond[k] == 0 {
			continue
		}
		gap := time.Second / time.Duration(perSecond[k])
		for due := shortest * time.Duration(k) / time.Duration(numOpKinds); due < window; due += gap {
			out = append(out, event{due: due, kind: k, probe: rng.Intn(probes)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}
