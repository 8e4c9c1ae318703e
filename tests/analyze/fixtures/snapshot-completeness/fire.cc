// Fixture: a data member mentioned in neither save() nor restore()
// is silently dropped by checkpoint/restore and must fire.
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
    }

    unsigned long pos_ = 0;
    unsigned long missed_ = 0;
};

// A Touché-shaped superblock: the signature stream is rebuilt from the
// slots on every repack, so it is tempting to skip it in saveState —
// but a restored cache would then serve stale signatures until the
// first repack. saveState/restoreState spellings must be recognized
// and the dropped member must fire.
struct SuperBlock
{
    void
    saveState(Serializer &s) const
    {
        s.u64(tag_);
        s.boolean(valid_);
    }

    void
    restoreState(Deserializer &d)
    {
        tag_ = d.u64();
        valid_ = d.boolean();
    }

    unsigned long tag_ = 0;
    bool valid_ = false;
    BitWriter sigStream_;
};

// A walk-spelled component: save and restore both run one walk, so the
// walk is the whole layout list and a member missing from it must fire.
struct Walked
{
    void save(Serializer &s) const { walk(*this, s); }
    void restore(Deserializer &d) { walk(*this, d); }

    template <typename Self, typename IO>
    static void
    walk(Self &self, IO &io)
    {
        io.u64(self.clock_);
    }

    unsigned long clock_ = 0;
    unsigned long dropped_ = 0;
};
