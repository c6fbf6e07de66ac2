//! The built-in concept ontology.
//!
//! ~95 concepts across food, drink, ambience, activity, service, retail,
//! automotive, wellness, and leisure domains — wide enough to generate a
//! plausible Yelp-like city (restaurants are only part of Yelp; the
//! paper's own query-generation example is a Pep Boys auto shop).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::concept::{Concept, ConceptId};

/// A resolved ontology: concepts plus implication closure.
#[derive(Debug)]
pub struct Ontology {
    concepts: Vec<Concept>,
    by_name: HashMap<&'static str, ConceptId>,
    /// `implied[i]` = ids implied by concept `i` (transitive, excluding
    /// `i` itself).
    implied: Vec<Vec<ConceptId>>,
}

impl Ontology {
    /// The shared built-in ontology.
    #[must_use]
    pub fn builtin() -> &'static Ontology {
        static ONTOLOGY: OnceLock<Ontology> = OnceLock::new();
        ONTOLOGY.get_or_init(|| Ontology::from_table(raw_concepts()))
    }

    fn from_table(table: Vec<RawConcept>) -> Self {
        let mut concepts = Vec::with_capacity(table.len());
        let mut by_name = HashMap::with_capacity(table.len());
        for (i, raw) in table.iter().enumerate() {
            let id = ConceptId(i as u16);
            by_name.insert(raw.name, id);
            concepts.push(Concept {
                id,
                name: raw.name,
                surface: raw.surface,
                paraphrases: raw.paraphrases,
                implies: raw.implies,
            });
        }
        // Resolve transitive implication closure (the graph is a small DAG;
        // a simple fixpoint is fine).
        let direct: Vec<Vec<ConceptId>> = concepts
            .iter()
            .map(|c| {
                c.implies
                    .iter()
                    .map(|n| {
                        *by_name.get(n).unwrap_or_else(|| {
                            panic!("unknown implied concept `{n}` in `{}`", c.name)
                        })
                    })
                    .collect()
            })
            .collect();
        let mut implied: Vec<Vec<ConceptId>> = vec![Vec::new(); concepts.len()];
        for i in 0..concepts.len() {
            let mut seen = vec![false; concepts.len()];
            let mut stack: Vec<ConceptId> = direct[i].clone();
            while let Some(c) = stack.pop() {
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    implied[i].push(c);
                    stack.extend(direct[c.index()].iter().copied());
                }
            }
            implied[i].sort();
        }
        Self {
            concepts,
            by_name,
            implied,
        }
    }

    /// Number of concepts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the ontology is empty (never true for the builtin).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// All concepts in id order.
    #[must_use]
    pub fn concepts(&self) -> &[Concept] {
        &self.concepts
    }

    /// Looks up a concept id by name.
    #[must_use]
    pub fn id(&self, name: &str) -> Option<ConceptId> {
        self.by_name.get(name).copied()
    }

    /// Looks up a concept id by name, panicking on unknown names.
    ///
    /// For internal wiring (datagen category tables) where a typo is a
    /// programming error.
    #[must_use]
    pub fn id_of(&self, name: &str) -> ConceptId {
        self.id(name)
            .unwrap_or_else(|| panic!("unknown concept name `{name}`"))
    }

    /// The concept for an id.
    #[must_use]
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Transitively implied (more general) concepts, excluding `id`.
    #[must_use]
    pub fn implied(&self, id: ConceptId) -> &[ConceptId] {
        &self.implied[id.index()]
    }

    /// Whether a POI holding `held` satisfies a required concept: it holds
    /// the concept itself or any concept that implies it.
    #[must_use]
    pub fn satisfies(&self, held: &[ConceptId], required: ConceptId) -> bool {
        held.iter()
            .any(|&h| h == required || self.implied(h).contains(&required))
    }

    /// Whether `held` satisfies *all* of `required`.
    #[must_use]
    pub fn satisfies_all(&self, held: &[ConceptId], required: &[ConceptId]) -> bool {
        required.iter().all(|&r| self.satisfies(held, r))
    }
}

struct RawConcept {
    name: &'static str,
    surface: &'static [&'static str],
    paraphrases: &'static [&'static str],
    implies: &'static [&'static str],
}

fn c(
    name: &'static str,
    surface: &'static [&'static str],
    paraphrases: &'static [&'static str],
    implies: &'static [&'static str],
) -> RawConcept {
    RawConcept {
        name,
        surface,
        paraphrases,
        implies,
    }
}

#[rustfmt::skip]
fn raw_concepts() -> Vec<RawConcept> {
    vec![
        // ---------------- Cuisines ----------------
        c("italian-cuisine",
            &["italian", "trattoria", "italian restaurant"],
            &["fresh pasta made in house", "nonna's recipes", "wood fired neapolitan pies", "burrata to die for"],
            &[]),
        c("mexican-cuisine",
            &["mexican", "taqueria", "mexican restaurant"],
            &["street corn and al pastor", "fresh salsa trio", "handmade tortillas", "margaritas with authentic flavor"],
            &[]),
        c("japanese-cuisine",
            &["japanese", "japanese restaurant", "izakaya"],
            &["omakase experience", "flavors straight from tokyo", "delicate umami in every bite"],
            &[]),
        c("chinese-cuisine",
            &["chinese", "chinese restaurant", "dim sum"],
            &["hand pulled noodles", "dumplings like in beijing", "pushcart brunch on weekends"],
            &[]),
        c("thai-cuisine",
            &["thai", "thai restaurant"],
            &["pad see ew done right", "proper bangkok heat levels", "fragrant lemongrass and basil"],
            &[]),
        c("indian-cuisine",
            &["indian", "indian restaurant"],
            &["naan fresh from the tandoor", "rich masala gravies", "thali platters worth sharing"],
            &[]),
        c("french-cuisine",
            &["french", "bistro", "french restaurant"],
            &["escargot and duck confit", "paris on a plate", "perfect creme brulee"],
            &[]),
        c("greek-cuisine",
            &["greek", "greek restaurant"],
            &["gyros carved fresh", "feta and olives on everything", "like a santorini taverna"],
            &[]),
        c("korean-cuisine",
            &["korean", "korean bbq", "korean restaurant"],
            &["banchan keeps coming", "grill at your table", "bulgogi and kimchi done properly"],
            &[]),
        c("vietnamese-cuisine",
            &["vietnamese", "vietnamese restaurant"],
            &["fragrant broth simmered overnight", "banh mi on crusty baguettes", "fresh herbs piled high"],
            &[]),
        c("american-diner",
            &["diner", "american food", "comfort food"],
            &["classic greasy spoon", "bottomless drip and big plates", "like grandma used to make"],
            &[]),
        c("bbq-smokehouse",
            &["bbq", "barbecue", "smokehouse"],
            &["low and slow brisket", "smoke ring on everything", "sauce slathered racks"],
            &[]),
        c("seafood-restaurant",
            &["seafood", "fish house", "seafood restaurant"],
            &["fresh off the boat", "shuck your own platter", "daily catch specials"],
            &[]),
        c("steakhouse",
            &["steakhouse", "steak house", "chophouse"],
            &["dry aged cuts", "cooked to a perfect medium rare", "special occasion carnivore spot"],
            &[]),
        c("mediterranean-cuisine",
            &["mediterranean", "middle eastern"],
            &["hummus and falafel plates", "shawarma carved to order", "olive oil drizzled everything"],
            &[]),

        // ---------------- Food items ----------------
        c("pizza",
            &["pizza", "pizzeria", "pizzas"],
            &["thin crust charred at the edges", "slices bigger than your head", "gooey cheese pull"],
            &[]),
        c("sushi",
            &["sushi", "sashimi", "sushi bar"],
            &["melt in your mouth nigiri", "creative rolls", "fish so fresh it squeaks"],
            &["japanese-cuisine"]),
        c("sushi-variety",
            &["sushi variety", "wide sushi selection"],
            &["endless roll options", "a menu of rolls pages long", "something raw for everyone"],
            &["sushi"]),
        c("tacos",
            &["taco", "tacos"],
            &["double wrapped street style", "tuesday night crowd pleasers", "fillings spilling out"],
            &["mexican-cuisine"]),
        c("burgers",
            &["burger", "burgers", "cheeseburger"],
            &["juicy patties stacked high", "smashed on the griddle", "messy in the best way"],
            &[]),
        c("chicken-wings",
            &["wings", "chicken wings", "buffalo wings"],
            &["saucy drums and flats", "crispy skin falling off the bone", "order extra blue cheese"],
            &["fried-chicken"]),
        c("fried-chicken",
            &["fried chicken", "chicken tenders", "chicken sandwich"],
            &["crackly golden crust", "brined overnight and juicy", "southern style bird"],
            &[]),
        c("ramen",
            &["ramen", "ramen shop"],
            &["rich tonkotsu bowls", "springy noodles and soft egg", "slurp worthy broth"],
            &["japanese-cuisine"]),
        c("pho",
            &["pho"],
            &["star anise scented bowls", "brisket and tendon add ins", "broth that cures colds"],
            &["vietnamese-cuisine"]),
        c("curry",
            &["curry", "curries"],
            &["simmered in coconut milk", "spice levels that mean it", "gravy begging for rice"],
            &[]),
        c("sandwiches",
            &["sandwich", "sandwiches", "deli", "sub shop", "hoagie"],
            &["piled high between bread", "lunch counter classics", "crusty rolls stuffed full"],
            &[]),
        c("salads",
            &["salad", "salads", "salad bar"],
            &["greens that are not an afterthought", "build your own bowls", "light but filling lunch"],
            &["healthy-options"]),
        c("breakfast-brunch",
            &["breakfast", "brunch"],
            &["weekend morning lines out the door", "eggs any style", "mimosa friendly mornings"],
            &[]),
        c("pancakes-waffles",
            &["pancakes", "waffles", "french toast"],
            &["syrup soaked stacks", "fluffy griddle goodness", "breakfast sweets done right"],
            &["breakfast-brunch"]),
        c("pastries",
            &["pastries", "croissant", "bakery", "baked goods"],
            &["flaky laminated layers", "cases of fresh morning bakes", "butter in every bite"],
            &[]),
        c("desserts",
            &["dessert", "desserts", "cakes"],
            &["save room for the ending", "sweet tooth paradise", "cakes worth the calories"],
            &[]),
        c("ice-cream",
            &["ice cream", "gelato", "frozen yogurt"],
            &["scoops churned daily", "cones dripping on hot days", "creamy frozen treats"],
            &["desserts"]),
        c("donuts",
            &["donut", "donuts", "doughnuts"],
            &["glazed rings still warm", "morning dozen to share", "fryer to counter in minutes"],
            &["pastries"]),
        c("bagels",
            &["bagel", "bagels"],
            &["boiled then baked the right way", "schmear options galore", "new york style rounds"],
            &["breakfast-brunch"]),
        c("oysters",
            &["oysters", "raw bar"],
            &["briny east coast dozen", "happy hour on the half shell", "mignonette and lemon ready"],
            &["seafood-restaurant"]),
        c("bbq-ribs",
            &["ribs", "brisket", "pulled pork"],
            &["bark and smoke in every bite", "falls apart with a fork", "pit master specials"],
            &["bbq-smokehouse"]),

        // ---------------- Drinks ----------------
        c("coffee-specialty",
            &["coffee", "cafe", "coffee shop", "coffeehouse"],
            &["single origin pour overs", "baristas who take it seriously", "beans roasted in house", "best flat white in town"],
            &[]),
        c("espresso-drinks",
            &["espresso", "latte", "cappuccino", "flat white"],
            &["perfectly pulled shots", "silky microfoam art", "cortados done properly"],
            &["coffee-specialty"]),
        c("tea-selection",
            &["tea", "tea house", "teas"],
            &["loose leaf by the pot", "oolongs and rare greens", "steeped with care"],
            &[]),
        c("bubble-tea",
            &["bubble tea", "boba"],
            &["chewy pearls in every sip", "taro and brown sugar favorites", "shaken to order"],
            &["tea-selection"]),
        c("craft-beer",
            &["craft beer", "brewery", "taproom", "brewpub"],
            &["rotating taps of local brews", "hazy ipas and crisp pilsners", "flights to sample the lineup"],
            &["beer-selection"]),
        c("beer-selection",
            &["beer", "beers on tap", "draft beer"],
            &["a wall of taps", "something cold for everyone", "pitchers with friends"],
            &[]),
        c("cocktails",
            &["cocktails", "cocktail bar", "mixology"],
            &["bartenders who stir with intent", "inventive seasonal drinks list", "balanced and boozy creations"],
            &[]),
        c("wine-list",
            &["wine", "wine bar", "winery"],
            &["deep cellar by the glass", "sommelier picked pairings", "old world and new world bottles"],
            &[]),
        c("whiskey-selection",
            &["whiskey", "bourbon", "scotch"],
            &["shelves of rare pours", "neat or with one cube", "flights of amber warmth"],
            &[]),
        c("milkshakes",
            &["milkshake", "milkshakes", "shakes"],
            &["thick enough to bend the straw", "malted old fashioned style", "blended dessert in a glass"],
            &["desserts"]),
        c("smoothies-juice",
            &["smoothie", "smoothies", "juice bar"],
            &["cold pressed greens", "blended fruit pick me ups", "post workout refuel"],
            &["healthy-options"]),

        // ---------------- Ambience ----------------
        c("cozy-atmosphere",
            &["cozy", "intimate", "charming atmosphere"],
            &["feels like a warm hug", "tucked away and snug", "soft lighting and warm corners"],
            &[]),
        c("romantic-setting",
            &["romantic", "date night"],
            &["candlelit tables for two", "anniversary worthy evenings", "where proposals happen"],
            &["cozy-atmosphere"]),
        c("family-friendly",
            &["family friendly", "kid friendly", "family restaurant"],
            &["high chairs and crayons ready", "little ones welcome", "crowd of strollers on weekends"],
            &[]),
        c("dog-friendly",
            &["dog friendly", "pet friendly"],
            &["water bowls on the patio", "bring your four legged friend", "pups welcome outside"],
            &[]),
        c("outdoor-seating",
            &["patio", "outdoor seating", "terrace", "beer garden"],
            &["sunny tables outside", "al fresco afternoons", "string lights over picnic tables"],
            &[]),
        c("rooftop-view",
            &["rooftop", "rooftop bar", "skyline view"],
            &["drinks above the city", "sunset over the skyline", "elevator to the top floor"],
            &["outdoor-seating"]),
        c("waterfront-view",
            &["waterfront", "river view", "harbor view"],
            &["tables by the water", "watch the boats go by", "breezy dockside dining"],
            &[]),
        c("live-music",
            &["live music", "live band", "music venue"],
            &["local acts most nights", "stage in the corner", "catch a set with dinner"],
            &[]),
        c("quiet-study-spot",
            &["quiet", "study spot", "good for working"],
            &["laptop crowd on weekdays", "outlets at every table", "nobody rushes you out"],
            &[]),
        c("trendy-hip",
            &["trendy", "hip", "stylish"],
            &["instagram ready corners", "the cool crowd's current favorite", "neon and exposed brick"],
            &[]),
        c("dive-bar-vibe",
            &["dive bar", "no frills bar"],
            &["cheap pours and sticky floors", "jukebox and regulars", "zero pretension"],
            &["bar-venue"]),
        c("historic-charm",
            &["historic", "landmark building"],
            &["original fixtures from another century", "walls that tell stories", "oldest spot on the block"],
            &[]),
        c("bar-venue",
            &["bar", "pub", "tavern", "lounge"],
            &["grab a stool and settle in", "after work watering hole", "nightcap territory"],
            &[]),

        // ---------------- Activities ----------------
        c("live-sports-viewing",
            &["sports bar", "watch sports", "watch football", "game on tv", "watch the game"],
            &["big screens on every wall", "packed on game day", "every match on the projectors", "cheering crowds on sunday"],
            &["bar-venue"]),
        c("karaoke",
            &["karaoke"],
            &["private singing rooms", "belt your heart out", "mic and songbook nights"],
            &[]),
        c("trivia-night",
            &["trivia", "quiz night"],
            &["weekly brain battles", "teams defending their titles", "prizes for know it alls"],
            &["bar-venue"]),
        c("dancing-club",
            &["nightclub", "dance floor", "club"],
            &["djs until close", "bass you can feel", "dance until your feet hurt"],
            &[]),
        c("billiards-darts",
            &["pool tables", "billiards", "darts"],
            &["rack them up in the back", "friendly hustlers welcome", "chalk and cues provided"],
            &["bar-venue"]),
        c("arcade-games",
            &["arcade", "pinball", "arcade games"],
            &["quarters and high scores", "retro cabinets lining the walls", "button mashing nostalgia"],
            &[]),
        c("bowling",
            &["bowling", "bowling alley", "lanes"],
            &["strikes and gutter balls", "rent the funny shoes", "cosmic night on weekends"],
            &[]),

        // ---------------- Service / policies ----------------
        c("friendly-staff",
            &["friendly staff", "great service", "helpful staff"],
            &["treated like a regular on day one", "team that remembers your order", "smiles all around", "staff who go the extra mile"],
            &[]),
        c("fast-service",
            &["fast service", "quick service"],
            &["in and out on a lunch break", "food arrives before you settle in", "no dawdling in the kitchen"],
            &[]),
        c("late-night-hours",
            &["late night", "open late", "open 24 hours"],
            &["feeds the after midnight crowd", "kitchen open when everything else closes", "last call comes late here"],
            &[]),
        c("open-early",
            &["open early", "early hours"],
            &["doors open before sunrise", "first stop before work", "early birds welcome"],
            &[]),
        c("reservations-recommended",
            &["reservations", "book ahead"],
            &["tables vanish weeks out", "walk ins wait a long time", "plan ahead for a seat"],
            &["popular-busy"]),
        c("takeout-delivery",
            &["takeout", "delivery", "to go"],
            &["packed well for the road", "on your couch in thirty minutes", "call ahead and grab it"],
            &[]),
        c("drive-through",
            &["drive thru", "drive through"],
            &["never leave the car", "line wraps the building at noon", "window service in a hurry"],
            &["fast-service"]),
        c("affordable-prices",
            &["cheap", "affordable", "good prices", "great value"],
            &["wallet barely notices", "student budget approved", "big portions small bill"],
            &[]),
        c("upscale-expensive",
            &["upscale", "fine dining", "high end"],
            &["white tablecloth treatment", "splurge worthy tasting menus", "dress code energy"],
            &[]),
        c("large-portions",
            &["large portions", "big portions", "huge servings"],
            &["leftovers guaranteed", "plates that need two hands", "come hungry leave stuffed"],
            &[]),
        c("fresh-ingredients",
            &["fresh ingredients", "farm to table", "locally sourced"],
            &["market haul on the menu", "picked this morning taste", "seasonal and local everything"],
            &[]),
        c("variety-of-options",
            &["variety", "wide selection", "many options"],
            &["menu pages that keep going", "something for every craving", "impossible to try it all in one visit"],
            &[]),
        c("popular-busy",
            &["popular", "busy", "crowded"],
            &["lines out the door", "local institution status", "everyone in town has a favorite order"],
            &[]),
        c("clean-space",
            &["clean", "spotless"],
            &["you could eat off the floors", "tidy tables and restrooms", "well kept corners everywhere"],
            &[]),
        c("long-waits",
            &["long wait", "slow service"],
            &["bring your patience", "kitchen takes its time", "worth it if you can wait"],
            &[]),
        c("healthy-options",
            &["healthy", "healthy options", "nutritious"],
            &["macros on the menu", "clean eating made easy", "guilt free choices"],
            &[]),

        // ---------------- Dietary ----------------
        c("vegan-friendly",
            &["vegan", "plant based"],
            &["no animal products anywhere", "herbivores eat like royalty", "dairy free desserts included"],
            &["vegetarian-options", "healthy-options"]),
        c("vegetarian-options",
            &["vegetarian", "meatless options"],
            &["meat free without feeling left out", "garden driven dishes", "more than a sad side salad"],
            &[]),
        c("gluten-free-options",
            &["gluten free"],
            &["celiac safe kitchen practices", "separate fryers for allergies", "bread alternatives that work"],
            &[]),

        // ---------------- Amenities ----------------
        c("free-wifi",
            &["wifi", "free wifi", "internet"],
            &["password on the chalkboard", "remote workers camp here", "streaming speed connection"],
            &[]),
        c("parking-available",
            &["parking", "parking lot", "free parking"],
            &["never circle the block", "spots right out front", "garage validated with purchase"],
            &[]),
        c("wheelchair-accessible",
            &["wheelchair accessible", "accessible"],
            &["ramps and wide aisles", "step free entrance", "accommodating layout throughout"],
            &[]),
        c("kid-play-area",
            &["play area", "playground inside"],
            &["little ones burn energy while you eat", "toys in the corner", "ball pit birthday zone"],
            &["family-friendly"]),
        c("private-rooms",
            &["private room", "private dining", "event space"],
            &["book the back room", "parties without the crowd", "celebrations behind closed doors"],
            &[]),

        // ---------------- Retail ----------------
        c("grocery-store",
            &["grocery", "supermarket", "market"],
            &["aisles of weekly staples", "produce section done right", "one stop pantry restock"],
            &[]),
        c("bookstore",
            &["bookstore", "books"],
            &["shelves to get lost in", "staff picks worth trusting", "smell of old paper"],
            &[]),
        c("florist",
            &["florist", "flower shop", "flowers"],
            &["bouquets built while you wait", "stems fresh from the cooler", "arrangements for every occasion"],
            &[]),
        c("pharmacy",
            &["pharmacy", "drugstore"],
            &["prescriptions without the wait", "pharmacists who answer questions", "refills ready on time"],
            &[]),
        c("hardware-store",
            &["hardware", "hardware store", "tools"],
            &["aisle experts who actually know", "every screw and fitting", "weekend project headquarters"],
            &[]),
        c("clothing-boutique",
            &["boutique", "clothing store", "apparel"],
            &["curated racks not mall racks", "pieces nobody else has", "stylists disguised as clerks"],
            &[]),
        c("thrift-vintage",
            &["thrift", "vintage", "secondhand"],
            &["treasure hunting racks", "one of a kind finds", "yesterday's styles priced right"],
            &["clothing-boutique"]),
        c("jewelry-store",
            &["jewelry", "jeweler"],
            &["cases of sparkle", "custom settings and repairs", "ring shopping without pressure"],
            &[]),
        c("pet-supplies",
            &["pet store", "pet supplies"],
            &["aisles of treats and toys", "everything for furry family", "staff who love animals"],
            &[]),

        // ---------------- Automotive ----------------
        c("auto-repair",
            &["auto repair", "mechanic", "car repair", "automotive"],
            &["honest wrenching at fair rates", "diagnose it right the first time", "back on the road fast", "most reliable service center around"],
            &[]),
        c("oil-change",
            &["oil change", "oil change station"],
            &["in and out lube service", "sticker on the windshield", "quick top to bottom fluid check"],
            &["auto-repair"]),
        c("tire-service",
            &["tires", "tire shop", "tire service"],
            &["rotation and balance while you wait", "plugged my flat in minutes", "rubber for every season"],
            &["auto-repair"]),
        c("car-wash",
            &["car wash", "detailing"],
            &["showroom shine every time", "hand dried and vacuumed", "mud gone in ten minutes"],
            &[]),
        c("auto-parts",
            &["auto parts", "car parts"],
            &["counter guys who find the part", "everything for diy repairs", "obscure components in stock"],
            &[]),

        // ---------------- Wellness ----------------
        c("hair-salon",
            &["hair salon", "salon", "haircut"],
            &["stylists who listen first", "color corrections that save the day", "walk out feeling brand new"],
            &[]),
        c("barber-shop",
            &["barber", "barbershop"],
            &["hot towel and straight razor", "fades sharp enough to cut", "old school chairs and banter"],
            &["hair-salon"]),
        c("nail-salon",
            &["nail salon", "manicure", "pedicure"],
            &["gel sets that last weeks", "pampering from the ankle down", "colors for days"],
            &[]),
        c("spa-massage",
            &["spa", "massage", "day spa"],
            &["knots melted away", "robes and cucumber water", "deep tissue that means it"],
            &[]),
        c("gym-fitness",
            &["gym", "fitness center", "fitness"],
            &["racks never all taken", "trainers who push you", "sweat it out any hour"],
            &[]),
        c("yoga-studio",
            &["yoga", "yoga studio", "pilates"],
            &["flows for every level", "savasana worth staying for", "mats and props provided"],
            &["gym-fitness"]),
        c("urgent-care",
            &["urgent care", "walk in clinic"],
            &["seen without an appointment", "stitches and strep tests fast", "beats the emergency room wait"],
            &[]),
        c("dental-care",
            &["dentist", "dental", "orthodontist"],
            &["gentle with nervous patients", "cleanings that don't hurt", "painless chairside manner"],
            &[]),
        c("tattoo-studio",
            &["tattoo", "tattoo parlor", "piercing"],
            &["artists with waitlists", "clean needles steady hands", "custom ink from your sketch"],
            &[]),

        // ---------------- Leisure ----------------
        c("hotel-lodging",
            &["hotel", "inn", "bed and breakfast"],
            &["beds you sink into", "front desk that fixes everything", "checkout always comes too soon"],
            &[]),
        c("museum-gallery",
            &["museum", "gallery", "art gallery"],
            &["rotating exhibits worth repeat visits", "hours disappear inside", "docents full of stories"],
            &[]),
        c("park-trails",
            &["park", "trails", "hiking"],
            &["shaded loops for morning runs", "picnic lawns and ponds", "green escape from the city"],
            &[]),
        c("playground",
            &["playground", "play structure"],
            &["slides and swings galore", "kids worn out by lunch", "soft landing surfaces"],
            &["family-friendly", "park-trails"]),
        c("golf-course",
            &["golf", "golf course", "driving range"],
            &["greens kept immaculate", "back nine with a view", "bucket of balls after work"],
            &[]),
        c("movie-theater",
            &["movie theater", "cinema", "movies"],
            &["reclining seats and real butter", "matinee deals", "big screen the way films deserve"],
            &[]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_loads_and_is_large() {
        let o = Ontology::builtin();
        assert!(o.len() >= 90, "got {}", o.len());
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let o = Ontology::builtin();
        for c in o.concepts() {
            assert_eq!(o.id(c.name), Some(c.id), "name {}", c.name);
        }
    }

    #[test]
    fn every_concept_has_surface_and_paraphrases() {
        let o = Ontology::builtin();
        for c in o.concepts() {
            assert!(!c.surface.is_empty(), "{} lacks surface terms", c.name);
            assert!(!c.paraphrases.is_empty(), "{} lacks paraphrases", c.name);
        }
    }

    #[test]
    fn implication_closure_is_transitive() {
        let o = Ontology::builtin();
        // espresso-drinks → coffee-specialty directly.
        let espresso = o.id_of("espresso-drinks");
        let coffee = o.id_of("coffee-specialty");
        assert!(o.implied(espresso).contains(&coffee));
        // sushi-variety → sushi → japanese-cuisine transitively.
        let sv = o.id_of("sushi-variety");
        let jp = o.id_of("japanese-cuisine");
        assert!(o.implied(sv).contains(&jp));
    }

    #[test]
    fn satisfies_uses_implication() {
        let o = Ontology::builtin();
        let held = vec![o.id_of("espresso-drinks")];
        assert!(o.satisfies(&held, o.id_of("coffee-specialty")));
        assert!(o.satisfies(&held, o.id_of("espresso-drinks")));
        assert!(!o.satisfies(&held, o.id_of("pizza")));
    }

    #[test]
    fn satisfies_all_requires_every_concept() {
        let o = Ontology::builtin();
        let held = vec![o.id_of("live-sports-viewing"), o.id_of("chicken-wings")];
        let req = vec![o.id_of("bar-venue"), o.id_of("fried-chicken")];
        assert!(o.satisfies_all(&held, &req));
        let req2 = vec![o.id_of("bar-venue"), o.id_of("pizza")];
        assert!(!o.satisfies_all(&held, &req2));
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(Ontology::builtin().id("no-such-concept").is_none());
    }

    #[test]
    fn phrases_are_lowercase() {
        let o = Ontology::builtin();
        for c in o.concepts() {
            for p in c.surface.iter().chain(c.paraphrases) {
                assert_eq!(*p, p.to_lowercase(), "phrase not lowercase: {p}");
            }
        }
    }
}
