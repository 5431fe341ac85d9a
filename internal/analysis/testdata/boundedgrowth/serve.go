// Golden fixture for boundedgrowth. The package is named "serve" so the
// analyzer's production scoping applies; scratch/ next door is out of scope
// and stays silent with identical code.
package serve

type server struct {
	cache  map[string]int
	hits   map[string]int
	log    []string
	seen   map[string]bool
	ring   []int
	known  map[string]int
	bg     []int
	orphan []int
	swept  map[string]int
	rows   []int
	spill  []int
}

// NewServer is constructor-shaped: its growth is bounded by its input.
func NewServer(warm []string) *server {
	s := &server{cache: map[string]int{}, seen: map[string]bool{}}
	for _, k := range warm {
		s.cache[k] = 0
	}
	return s
}

// Handle grows the cache on the request path with no eviction anywhere.
func (s *server) Handle(k string) {
	s.cache[k]++ // want `unbounded growth: map insert to s.cache in server.Handle`
}

// Append grows the log on the request path with no truncation anywhere.
func (s *server) Append(v string) {
	s.log = append(s.log, v) // want `unbounded growth: append to s.log in server.Append`
}

// Record is unexported but reachable through Handle2; the finding lands here.
func (s *server) record(k string) {
	s.hits[k]++ // want `unbounded growth: map insert to s.hits in server.record`
}

func (s *server) Handle2(k string) {
	s.record(k)
}

// Mark grows seen, but Evict deletes from it — package-wide evidence.
func (s *server) Mark(k string) {
	s.seen[k] = true
}

func (s *server) Evict(k string) {
	delete(s.seen, k)
}

// Push caps the ring in place: len comparison plus truncating self-slice.
func (s *server) Push(v int) {
	s.ring = append(s.ring, v)
	if len(s.ring) > 128 {
		s.ring = s.ring[1:]
	}
}

// Memo flushes wholesale at the cap; clear is evidence.
func (s *server) Memo(k string, v int) {
	if len(s.known) >= 1024 {
		clear(s.known)
	}
	s.known[k] = v
}

// AddRows refuses a batch that would take rows past its cap: a len term of
// a sum compared against a bound is cap evidence.
func (s *server) AddRows(batch []int) bool {
	if len(s.rows)+len(batch) > 4096 {
		return false
	}
	s.rows = append(s.rows, batch...)
	return true
}

// Spill is AddRows's twin whose sum is compared against 0: an emptiness
// check, not a cap.
func (s *server) Spill(batch []int) {
	if len(s.spill)+len(batch) == 0 {
		return
	}
	s.spill = append(s.spill, batch...) // want `unbounded growth: append to s.spill in server.Spill`
}

// Start grows inside a spawned goroutine body; the spawn inherits Start's
// reachability.
func (s *server) Start() {
	go func() {
		s.bg = append(s.bg, 1) // want `unbounded growth: append to s.bg in server.Start`
	}()
}

// Track grows swept; its only eviction runs in the goroutine Janitor
// spawns. The evidence union reaches spawned bodies of other functions.
func (s *server) Track(k string) {
	s.swept[k]++
}

// Janitor spawns the sweeper that evicts from swept.
func (s *server) Janitor(k string) {
	go func() {
		delete(s.swept, k)
	}()
}

// orphanGrow is unreachable from any exported function: no traffic feeds it.
func (s *server) orphanGrow() {
	s.orphan = append(s.orphan, 1)
}

// Collect builds a local slice; its lifetime ends with the call.
func (s *server) Collect(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// --- package-level state and method-value reachability ---

var events []string

// LogEvent grows a package-level slice on an exported path.
func LogEvent(msg string) {
	events = append(events, msg) // want `unbounded growth: append to events in LogEvent`
}

type mux struct {
	routes map[string]int
}

// install is never called, only referenced as a method value from Routes —
// the reference is still a graph edge, so the growth is reachable.
func (m *mux) install(k string) {
	m.routes[k] = 1 // want `unbounded growth: map insert to m.routes in mux.install`
}

// Routes hands install out as a method value.
func (m *mux) Routes() func(string) {
	return m.install
}
