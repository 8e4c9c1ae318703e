// Fixture: a fully-snapshotted class, a derived member with a
// documented suppression, and a class with no snapshot methods must
// not fire.
struct Model
{
    void
    save(Serializer &s) const
    {
        s.u64(pos_);
    }

    void
    restore(Deserializer &d)
    {
        pos_ = d.u64();
        mask_ = pos_ - 1;
    }

    unsigned long pos_ = 0;
    unsigned long mask_ = 0;
    unsigned long scratch_ = 0; // morc-analyze: allow(snapshot-completeness) transient scratch
};

struct Plain
{
    int untracked_ = 0;
};

// A walk-spelled component whose out-of-line walk names every member
// must not fire, even though save and restore only forward to it.
struct Walked
{
    void save(Serializer &s) const;
    void restore(Deserializer &d);

    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    unsigned long clock_ = 0;
    bool open_ = false;
};

template <typename Self, typename IO>
void
Walked::walk(Self &self, IO &io)
{
    io.u64(self.clock_);
    io.boolean(self.open_);
}
